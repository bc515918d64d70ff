"""Exact linear algebra over the prime field Z/p on plain Python ints.

Every hot question in the package reduces to one over the prime field:
a code corrects a pattern when a set of base-field expansion columns is
linearly independent, a UDM set is universally decodable when stacked
row prefixes are, and decoding solves one system against those columns.
The F_q answers carry over because each F_q-linear map is also F_p-linear
and injectivity (or solvability) does not depend on which subfield it is
linearized over.

Vectors are sequences of ints in [0, p).  The one elimination routine is
``Echelon.insert``: it keeps the inserted vectors in echelon form, each
scaled to 1 at its pivot and zero at the pivots of the vectors before it.
Pivots are searched only among the first ``width`` entries; entries past
``width`` ride along, which is how callers track which combination of
their inputs produced a vector.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ParameterError
from .linalg import SolveResult


class Echelon:
    """An echelon basis of the vectors inserted so far."""

    __slots__ = ("p", "width", "rows")

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows: list[tuple[int, list[int]]] = []  # (pivot, vector)

    def copy(self) -> "Echelon":
        """The same basis, open to further inserts; rows are shared, since
        no row changes after it is inserted."""
        twin = Echelon(self.p, self.width)
        twin.rows = list(self.rows)
        return twin

    def reduce(self, v: Sequence[int]) -> list[int]:
        """v minus its projection onto the basis, pivot by pivot."""
        p = self.p
        v = list(v)
        for piv, b in self.rows:
            c = v[piv]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, b)]
        return v

    def insert(self, v: Sequence[int]) -> list[int] | None:
        """Add v to the basis; None when it was independent of the basis.

        A dependent v is returned reduced: zero in the first ``width``
        entries, with whatever the trailing entries accumulated.
        """
        v = self.reduce(v)
        for piv in range(self.width):
            c = v[piv]
            if c:
                if c != 1:
                    inv = pow(c, -1, self.p)
                    v = [x * inv % self.p for x in v]
                self.rows.append((piv, v))
                return None
        return v


def first_dependent(vectors: Sequence[Sequence[int]], p: int) -> int | None:
    """Index of the first vector in the span of those before it, else None.

    None means the vectors are linearly independent: the full-rank test
    behind every correctability and universal-decodability verdict.
    """
    if not vectors:
        return None
    ech = Echelon(p, len(vectors[0]))
    for k, v in enumerate(vectors):
        if ech.insert(v) is not None:
            return k
    return None


def _tagged(columns: Sequence[Sequence[int]]) -> list[list[int]]:
    # column k followed by the k-th unit vector, so a reduced vector's tail
    # records the combination of input columns that produced it
    k = len(columns)
    return [list(col) + [int(i == j) for i in range(k)] for j, col in enumerate(columns)]


def dependency(columns: Sequence[Sequence[int]], p: int) -> list[int] | None:
    """The kernel vector of the first dependent column, else None.

    It is 1 at the first column f in the span of the earlier ones, zero
    after f, and the unique coefficients before f; this is the first
    vector of the canonical (reduced-echelon) kernel basis.
    """
    if not columns:
        return None
    width = len(columns[0])
    ech = Echelon(p, width)
    for v in _tagged(columns):
        left = ech.insert(v)
        if left is not None:
            return left[width:]
    return None


def solve(columns: Sequence[Sequence[int]], rhs: Sequence[int], p: int) -> SolveResult:
    """Solve sum_k x_k columns[k] = rhs over Z/p.

    Same outcomes as ``linalg.solve``: inconsistency is reported before
    ambiguity, and ``free_count`` is the kernel dimension.
    """
    ncols = len(columns)
    height = len(rhs)
    if any(len(col) != height for col in columns):
        raise ParameterError("right-hand side length does not match row count")
    ech = Echelon(p, height)
    for v in _tagged(columns):
        ech.insert(v)
    left = ech.reduce(list(rhs) + [0] * ncols)
    if any(left[:height]):
        return SolveResult("inconsistent", None, 0)
    # rhs - sum c_b b = 0 and each basis vector b carries its combination
    # of columns in its tail, so the tail of the reduced rhs is -x
    solution = [-x % p for x in left[height:]]
    free = ncols - len(ech.rows)
    return SolveResult("unique" if free == 0 else "ambiguous", solution, free)


def inverse(columns: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Rows of the inverse of the square matrix with the given columns."""
    n = len(columns)
    if any(len(col) != n for col in columns):
        raise ParameterError("only square matrices can be inverted")
    ech = Echelon(p, n)
    for v in _tagged(columns):
        if ech.insert(v) is not None:
            raise ParameterError("matrix is singular")
    # column r of the inverse solves M x = e_r
    inv_cols = [
        [-x % p for x in ech.reduce([int(i == r) for i in range(n)] + [0] * n)[n:]]
        for r in range(n)
    ]
    return [list(row) for row in zip(*inv_cols)]


def mat_vec(rows: Sequence[Sequence[int]], v: Sequence[int], p: int) -> list[int]:
    return [sum(a * x for a, x in zip(row, v)) % p for row in rows]
