"""The linear-code record every construction emits and every checker consumes."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from . import modp
from .errors import ParameterError, require_int
from .fields import Element, ExtSpec, OrderedBasis
from .patterns import PatternFamily


def expand_column(
    omega: OrderedBasis, column, width: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """The prime-field columns of column * omega_j * x^d, j-major, d-minor.

    Each is the coordinates over ``omega`` of every entry times
    ``omega.digit_elements[j * e + d]``, written as prime-field digits
    (``OrderedBasis.coordinate_digits``) and stacked entry by entry.  Only
    the first ``width`` columns are built; by default all alpha * e.
    """
    return _expand(omega, column, omega.digit_elements[:width])


def _expand(omega: OrderedBasis, column, elements) -> tuple[tuple[int, ...], ...]:
    # the prime-field columns of column * w for each w in elements
    return tuple(
        tuple(d for x in column for d in omega.coordinate_digits(x * w)) for w in elements
    )


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

    ``expansion(i)`` is H's base-field expansion against ``omega`` over
    the prime field, one block of alpha * e columns per symbol, so the
    t_i leading coordinates of symbol i are the prefix ``[: t_i * e]``.
    Blocks are built on first use and kept on the code: every
    correctability check and every decode reads its columns from there.
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

    def expansion(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Symbol i's block: ``expand_column`` of H[:, i], all alpha * e
        columns, computed on first use and memoized on the code."""
        block = self._expansion.get(i)
        if block is None:
            block = self._expansion[i] = expand_column(self.omega, [row[i] for row in self.H])
        return block

    @cached_property
    def rank(self) -> int:
        """Rank of H over the extension, from the F_p rank of the expansion.

        The alpha * e expansion columns of H[:, i] are all independent of
        the columns before them when H[:, i] is independent of H's columns
        before it, and all dependent otherwise; the first of them decides,
        so a dependent symbol's block is never built, and an independent
        one's is built around the digit-0 column already made.
        """
        ext, omega = self.ext, self.omega
        ech = modp.Echelon(ext.base.p, self.r * ext.alpha * ext.base.e)
        rank = 0
        for i in range(self.n):
            block = self._expansion.get(i)
            column = [row[i] for row in self.H]
            head = block[:1] if block else _expand(omega, column, omega.digit_elements[:1])
            if ech.insert(head[0]) is None:
                rank += 1
                if block is None:
                    block = head + _expand(omega, column, omega.digit_elements[1:])
                    self._expansion[i] = block
                for col in block[1:]:
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
