"""Exact linear algebra over any field of the tower, on the prime-field kernel.

Matrices are sequences of sequences of Element; the owning field context
is passed alongside so empty matrices still know where their zeros and
ones live.  Results are those of reduced row echelon form with
first-nonzero pivoting, but no elimination runs on Element objects: every
question is answered by ``modp.Echelon`` on the matrix linearized over F_p,
its columns packed one per int.

A field K of the tower has a prime-field basis of ``deg`` power units
(x^d for the base field, y^a x^d for the extension), the first of them
1, and each column of a K-matrix becomes a block of ``deg`` F_p columns,
the column times each power unit (the field's
``multiplication_columns``).  The blocks are inserted left to right.  A
column in the K-span of the columns before it is found by its digit-0
F_p column alone: that column then reduces to zero, and its tags hold,
digit by digit, the coefficients of the column's canonical kernel vector.
Any other column raises the F_p rank by a full ``deg``, so a K-rank is a
count of independent blocks.  A system M x = b is the same question with
b's block appended: it is solvable iff that block depends on M's, and the
tags of its digit-0 column then hold x, negated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import modp
from .errors import ParameterError
from .fields import Element


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact linear solve."""

    status: str  # "unique" | "ambiguous" | "inconsistent"
    solution: list | None
    free_count: int


def _linearize(rows: Sequence[Sequence], ncols: int, spec):
    """The layout, deg and the packed F_p columns of the matrix, a block of
    deg per column."""
    deg = spec.digit_layout.width
    lay = modp.layout(spec.digit_layout.p, len(rows) * deg)
    columns = []
    for j in range(ncols):
        columns += spec.multiplication_columns([row[j] for row in rows], lay)
    return lay, deg, columns


def _vector(spec, deg: int, digits: Sequence[int]) -> list[Element]:
    return [Element(spec, tuple(digits[k : k + deg])) for k in range(0, len(digits), deg)]


def rank(rows: Sequence[Sequence], spec) -> int:
    lay, deg, columns = _linearize(rows, len(rows[0]) if rows else 0, spec)
    return modp.kernel(columns, lay, deg).count(None)


def right_kernel(rows: Sequence[Sequence], ncols: int, spec) -> list[list]:
    """Canonical basis of {x : M x = 0}, one vector per free column."""
    lay, deg, columns = _linearize(rows, ncols, spec)
    return [_vector(spec, deg, tail) for tail in modp.kernel(columns, lay, deg) if tail is not None]


def solve(rows: Sequence[Sequence], rhs: Sequence, ncols: int, spec) -> SolveResult:
    """Solve M x = rhs; ambiguity and inconsistency are reported, not raised.

    The right-hand side is one more block of columns after M's.  If it is
    independent of them the system is inconsistent.  Otherwise the tags of
    its first column, reduced, are a kernel vector that is 1 on that column
    and zero on every free column of M, since a dependent block is never
    inserted: its entries on M's columns are the solution, negated, zero at
    every free column as in reduced row echelon form.  The free count is
    the number of dependent blocks of M.
    """
    if len(rows) != len(rhs):
        raise ParameterError("right-hand side length does not match row count")
    lay, deg, columns = _linearize(rows, ncols, spec)
    columns += spec.multiplication_columns(rhs, lay)
    *blocks, tail = modp.kernel(columns, lay, deg)
    if tail is None:
        return SolveResult("inconsistent", None, 0)
    p = lay.p
    free = len(blocks) - blocks.count(None)
    solution = _vector(spec, deg, [-x % p for x in tail[: ncols * deg]])
    return SolveResult("unique" if free == 0 else "ambiguous", solution, free)


def invert(rows: Sequence[Sequence], spec) -> list[list]:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParameterError("only square matrices can be inverted")
    lay, deg, columns = _linearize(rows, n, spec)
    inv = modp.inverse(columns, lay)
    # column r of the inverse solves M x = e_r, whose digits are unit r*deg
    cols = [_vector(spec, deg, lay.digits(inv[r * deg])) for r in range(n)]
    return [list(row) for row in zip(*cols)]

