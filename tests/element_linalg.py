"""Exact linear algebra over any field of the tower, by Element-object elimination.

This is the reduced-row-echelon route ``hierasure.linalg`` ran before it
was rebuilt on the prime-field kernel, kept unchanged as an independent
oracle: ``reference.py`` and the tests that check a result of the package
with plain linear algebra use it, and the differential tests compare the
package's ``linalg`` against it.

Matrices are sequences of sequences of Element; the owning field context
is passed alongside so empty matrices still know where their zeros and
ones live.  Everything reduces to row echelon form with first-nonzero
pivoting; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from hierasure import ParameterError


def rref(rows: Sequence[Sequence], spec, ncols: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Pivots are searched only in the first ``ncols`` columns (all of them by
    default), so augmented columns are carried along without pivoting.
    """
    m = [list(r) for r in rows]
    if not m:
        return m, []
    bound = len(m[0]) if ncols is None else ncols
    pivots = []
    r = 0
    for col in range(bound):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][col].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence], spec) -> int:
    return len(rref(rows, spec)[1])


def right_kernel(rows: Sequence[Sequence], ncols: int, spec) -> list[list]:
    """Canonical basis of {x : M x = 0}, one vector per free column."""
    reduced, pivots = rref(rows, spec)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    zero, one = spec.zero(), spec.one()
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i][f]
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact linear solve."""

    status: str  # "unique" | "ambiguous" | "inconsistent"
    solution: list | None
    free_count: int


def solve(rows: Sequence[Sequence], rhs: Sequence, ncols: int, spec) -> SolveResult:
    """Solve M x = rhs; ambiguity and inconsistency are reported, not raised."""
    if len(rows) != len(rhs):
        raise ParameterError("right-hand side length does not match row count")
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not aug:
        zero = spec.zero()
        return SolveResult("unique" if ncols == 0 else "ambiguous", [zero] * ncols, ncols)
    reduced, pivots = rref(aug, spec, ncols)
    for i in range(len(reduced)):
        if all(not x for x in reduced[i][:ncols]) and reduced[i][ncols]:
            return SolveResult("inconsistent", None, 0)
    zero = spec.zero()
    solution = [zero] * ncols
    for i, p in enumerate(pivots):
        solution[p] = reduced[i][ncols]
    free_count = ncols - len(pivots)
    if free_count == 0:
        return SolveResult("unique", solution, 0)
    return SolveResult("ambiguous", solution, free_count)


def identity(n: int, spec) -> list[list]:
    zero, one = spec.zero(), spec.one()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def invert(rows: Sequence[Sequence], spec) -> list[list]:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParameterError("only square matrices can be inverted")
    aug = [list(r) + ident_row for r, ident_row in zip(rows, identity(n, spec))]
    reduced, pivots = rref(aug, spec, n)
    if len(pivots) != n:
        raise ParameterError("matrix is singular")
    return [row[n:] for row in reduced]


def mat_vec(rows: Sequence[Sequence], vec: Sequence, spec):
    out = []
    for row in rows:
        acc = spec.zero()
        for a, x in zip(row, vec):
            acc = acc + a * x
        out.append(acc)
    return out


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], spec) -> list[list]:
    if not a:
        return []
    inner = len(b)
    out = []
    for row in a:
        if len(row) != inner:
            raise ParameterError("inner dimensions do not match")
        out_row = []
        for j in range(len(b[0]) if inner else 0):
            acc = spec.zero()
            for k in range(inner):
                acc = acc + row[k] * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out
