"""The linear-code record every construction emits and every checker consumes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import linalg
from .errors import ParameterError
from .fields import Element, ExtSpec, OrderedBasis
from .patterns import PatternFamily


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A parity-check matrix over the extension field, plus decoding context.

    ``H`` has r rows and n columns; the code is its right kernel.  ``omega``
    is the basis codeword symbols are expanded over when erased, and
    ``claim`` names the pattern family the construction promises to
    correct.  The actual rank of H is computed at construction time and
    ``dim`` is n - rank, which may exceed n - r when rows are dependent.
    A 0-row H is legal (the whole space) but then ``length`` must be given.

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
    rank: int = field(init=False)
    dim: int = field(init=False)
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
        object.__setattr__(self, "length", n)
        if self.omega.ext != self.ext:
            raise ParameterError("decoding basis belongs to a different extension")
        if self.claim is not None and self.claim.n != n:
            raise ParameterError("claimed family length does not match the code length")
        rank = linalg.rank([list(r) for r in rows], self.ext)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "dim", n - rank)
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
