"""Exact linear algebra over the prime field Z/p on plain Python ints.

Every hot question in the package reduces to one over the prime field.
A code corrects a pattern t when the first t_i * e expansion columns of
each symbol, stacked, are independent, and a UDM set is universally
decodable when its stacked row prefixes are: one question, answered for
both by ``prefix_echelons``.  Decoding solves one system against those
columns.  The F_q answers carry over because each F_q-linear map is also
F_p-linear and injectivity (or solvability) does not depend on which
subfield it is linearized over.

Vectors are sequences of ints in [0, p).  The package's one elimination
routine is ``Echelon.insert`` (``linalg`` answers its questions about
Element matrices through it too): it keeps the inserted vectors in echelon form, each
scaled to 1 at its pivot and zero at the pivots of the vectors before it.
Pivots are searched only among the first ``width`` entries; entries past
``width`` ride along, which is how callers track which combination of
their inputs produced a vector.

``Echelon.rows`` is append-only: an independent insert appends exactly
one row and never changes an earlier one, so ``rows[:s]`` is the echelon
of the first s independent vectors inserted, and ``del rows[s:]`` rolls
the basis back to it.  ``prefix_echelons`` walks all its patterns on one
echelon this way, keeping the rows of the stacked prefix a pattern shares
with the one before; the echelon it yields is valid until the walk
advances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ParameterError


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact linear solve."""

    status: str  # "unique" | "ambiguous" | "inconsistent"
    solution: list | None
    free_count: int


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


def prefix_echelons(blocks: Sequence, patterns: Iterable, unit: int, p: int) -> Iterator:
    """For each pattern t, (t, the echelon of the first t_i * unit vectors
    of every block i, stacked), or (t, None) when those are dependent: the
    full-rank test behind every correctability and UDM verdict.

    One echelon serves the whole walk, and the yielded echelon is valid
    only until the walk advances; copy it to keep it.  Its rows are
    append-only, one per independent insert, so the echelon of the first
    s stacked vectors is ``rows[:s]``: a pattern keeps the rows of the
    stacked vectors it shares with the pattern before and inserts only the
    rest, and it fails without an insert when the shared vectors already
    held the earlier pattern's first dependency.  Any order of patterns
    is exact; lex order shares the most.
    """
    width = next((len(v) for block in blocks for v in block), 0)
    ech = Echelon(p, width)
    rows = ech.rows
    lengths = [len(block) for block in blocks]
    prev: list[int] = []  # stacked vectors per block of the pattern before
    failed = None  # stacked position of its first dependent vector
    for t in patterns:
        counts = [c if (c := ti * unit) <= n else n for n, ti in zip(lengths, t)]
        # the stacked prefix shared with the pattern before ends in block d
        shared = d = start = 0
        for c, c_prev in zip(counts, prev):
            if c != c_prev:
                start = min(c, c_prev)
                break
            shared += c
            d += 1
        shared += start
        prev = counts
        if failed is not None and shared > failed:
            yield t, None
            continue
        failed = None
        del rows[shared:]
        rest = (
            v for i in range(d, len(counts)) for v in blocks[i][start if i == d else 0 : counts[i]]
        )
        for pos, v in enumerate(rest, shared):
            if ech.insert(v) is not None:
                failed = pos
                break
        yield t, None if failed is not None else ech


def tagged(columns: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column k followed by the k-th unit vector, so a reduced vector's tail
    records the combination of input columns that produced it."""
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
    for v in tagged(columns):
        left = ech.insert(v)
        if left is not None:
            return left[width:]
    return None


def solve(columns: Sequence[Sequence[int]], rhs: Sequence[int], p: int) -> SolveResult:
    """Solve sum_k x_k columns[k] = rhs over Z/p.

    Inconsistency is reported before ambiguity; a consistent system gets
    the solution that is zero at every free column, and ``free_count`` is
    the kernel dimension.
    """
    ncols = len(columns)
    height = len(rhs)
    if any(len(col) != height for col in columns):
        raise ParameterError("right-hand side length does not match row count")
    ech = Echelon(p, height)
    for v in tagged(columns):
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
    for v in tagged(columns):
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
