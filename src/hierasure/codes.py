"""The linear-code record every construction emits and every checker consumes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from . import modp
from .errors import ParameterError, require_int
from .fields import Element, ExtSpec, OrderedBasis
from .patterns import PatternFamily


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A parity-check matrix over the extension field, plus decoding context.

    ``H`` has r rows and n columns; the code is its right kernel.  ``omega``
    is the basis codeword symbols are expanded over when erased, and
    ``claim`` names the pattern family the construction promises to
    correct.  ``rank`` is the actual rank of H, computed on first read
    from the expansion, and ``dim`` is n - rank, which may exceed n - r
    when rows are dependent.  A 0-row H is legal (the whole space) but then
    ``length`` must be given.

    ``expansion(i, j)`` is H's base-field expansion against ``omega`` over
    the prime field, one column block at a time, built on first use and
    kept on the code: every correctability check and every decode reads
    its columns from there.
    """

    ext: ExtSpec
    H: tuple[tuple[Element, ...], ...]
    omega: OrderedBasis
    claim: PatternFamily | None = None
    provenance: Mapping = field(default_factory=dict)
    length: int | None = None
    _expansion: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.H)
        object.__setattr__(self, "H", rows)
        n = self.length
        if rows:
            if n is None:
                n = len(rows[0])
            for row in rows:
                if len(row) != n:
                    raise ParameterError("parity-check rows have unequal lengths")
                for entry in row:
                    self.ext._check_same(entry)
        elif n is None:
            raise ParameterError("a 0-row parity check needs an explicit length")
        require_int(n, "code length")
        object.__setattr__(self, "length", n)
        if self.omega.ext != self.ext:
            raise ParameterError("decoding basis belongs to a different extension")
        if self.claim is not None and self.claim.n != n:
            raise ParameterError("claimed family length does not match the code length")
        object.__setattr__(self, "_expansion", {})

    def expansion(self, i: int, j: int) -> tuple[tuple[int, ...], ...]:
        """The prime-field columns of H[:, i] * omega_j.

        One column per digit d of the base field: the coordinates over
        ``omega`` of H[k][i] * omega_j * x^d for every row k, written as
        prime-field digits (``OrderedBasis.coordinate_digits``) and stacked
        row by row, ``r * alpha * e`` entries.  Computed on first use and
        memoized on the code.
        """
        cols = self._expansion.get((i, j))
        if cols is None:
            omega = self.omega
            e = self.ext.base.e
            cols = tuple(
                tuple(
                    d
                    for row in self.H
                    for d in omega.coordinate_digits(row[i] * w)
                )
                for w in omega.digit_elements[j * e : (j + 1) * e]
            )
            self._expansion[(i, j)] = cols
        return cols

    @cached_property
    def rank(self) -> int:
        """Rank of H over the extension, from the F_p rank of the expansion.

        The alpha * e expansion columns of H[:, i] are all independent of
        the columns before them when H[:, i] is independent of H's columns
        before it, and all dependent otherwise; the first of them decides.
        """
        ext = self.ext
        ech = modp.Echelon(ext.base.p, self.r * ext.alpha * ext.base.e)
        rank = 0
        for i in range(self.n):
            first, *rest = self.expansion(i, 0)
            if ech.insert(first) is None:
                rank += 1
                for col in itertools.chain(rest, *(self.expansion(i, j) for j in range(1, ext.alpha))):
                    ech.insert(col)
        return rank

    @cached_property
    def dim(self) -> int:
        return self.n - self.rank

    @property
    def n(self) -> int:
        return self.length

    @property
    def r(self) -> int:
        return len(self.H)


def code_from_rows(
    ext: ExtSpec,
    rows,
    omega: OrderedBasis,
    claim: PatternFamily | None = None,
    provenance: Mapping | None = None,
    length: int | None = None,
) -> LinearCode:
    """Build a LinearCode from any iterable of row iterables."""
    return LinearCode(
        ext, tuple(tuple(r) for r in rows), omega, claim, dict(provenance or {}), length
    )
