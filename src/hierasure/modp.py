"""Exact linear algebra over the prime field Z/p on packed Python ints.

Every hot question in the package reduces to one over the prime field.
A code corrects a pattern t when the first t_i * e expansion columns of
each symbol, stacked, are independent, and a UDM set is universally
decodable when its stacked row prefixes are: one question, answered for
both by ``walk``.  Decoding reduces one right-hand side
against the echelon of a pattern's erased columns, tagged so that the
reduced vector reads out the codeword.  The F_q answers carry over
because each F_q-linear map is also F_p-linear and injectivity (or
solvability) does not depend on which subfield it is linearized over.

A vector is one int.  Its entry k is *lane* k, bits [k*B, (k+1)*B), and a
``Layout`` fixes B for a prime p and a *width*, the number of lanes
pivots are searched in; lanes past the width are tags that ride along,
which is how callers track which combination of their inputs produced a
vector.  Stored vectors are normalized, every lane in [0, p).  Adding
c * row for c in [0, p) grows each lane by at most (p-1)^2, and an
elimination makes at most ``width`` such row operations, so no lane
exceeds A = (p-1) + width * (p-1)^2 between normalizations.  One Barrett
step then reduces every lane at once:

    x - p * ((x * M >> s) & Q)

with s the bit length of A * (p-1), M = ceil(2^s / p) and B the bit
length of A * M.  Lane k of x * M is a_k * M < 2^B, so the products do
not overlap; shifted right by s, lane k holds floor(a_k * M / 2^s), which
is floor(a_k / p) because a_k * (M*p - 2^s) < 2^s, under the top s bits
of lane k+1's product, which Q, the low B - s bits of every lane, masks
off.  Python ints make any p and width fit.

The package's one elimination routine is ``Echelon.insert`` (``linalg``
answers its questions about Element matrices through it too): it keeps
the inserted vectors in echelon form, each scaled to 1 at its pivot, the
lowest non-zero lane of its first ``width`` lanes, and zero at the pivots
of the vectors before it.  A row operation is ``x += (p - c) * row``, with
c read from one lane; an insert normalizes once after its row operations,
and a vector is dependent iff its first ``width`` lanes are then zero.

``Echelon.rows`` is append-only: an independent insert appends exactly
one row and never changes an earlier one, so ``rows[:s]`` is the echelon
of the first s independent vectors inserted, and ``del rows[s:]`` rolls
the basis back to it, which is how ``walk`` checks a pattern trie on one
echelon.  The walk is one generator frame over an explicit stack of
levels, so it has no depth limit: a trie has one level per block, and a
code may have more symbols than the interpreter has recursion depth.  A
trie's ``children(i, node)`` returns a tuple, often the same one each
time a node is reached, and the walk takes ``iter()`` of it.  A child may
be the end marker ``None``, which says that every deeper entry is 0: the
walk yields that leaf where it stands, so a leaf that its trie ends at
level i costs i + 1 levels, not one per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Callable, Iterator, Sequence

from .errors import ParameterError


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact linear solve."""

    status: str  # "unique" | "ambiguous" | "inconsistent"
    solution: list | None
    free_count: int


class Layout:
    """How vectors over Z/p with ``width`` pivot lanes and ``tags`` tag
    lanes pack into one int, and the constants that normalize every lane
    at once (see the module notes).  B, M and s depend on p and the width
    only, so vectors packed for a width stay valid with tag lanes added."""

    __slots__ = ("p", "width", "lanes", "bits", "lane", "pivots", "mul", "shift", "quot")

    def __init__(self, p: int, width: int, tags: int = 0):
        top = (p - 1) + max(width, 1) * (p - 1) ** 2  # A: the largest lane between normalizations
        self.shift = (top * (p - 1)).bit_length()  # s
        self.mul = -(-(1 << self.shift) // p)  # M = ceil(2^s / p)
        self.bits = bits = (top * self.mul).bit_length()  # B
        self.p = p
        self.width = width
        self.lanes = lanes = width + tags
        self.lane = (1 << bits) - 1
        self.pivots = (1 << bits * width) - 1  # W: the pivot lanes
        # Q: the low B - s bits of every lane, where the quotients sit
        ones = ((1 << bits * lanes) - 1) // self.lane
        self.quot = ones * ((1 << bits - self.shift) - 1)

    def pack(self, digits: Sequence[int]) -> int:
        """The int whose lane k is digits[k]; digits must lie in [0, p)."""
        x = 0
        for d in reversed(digits):
            x = x << self.bits | d
        return x

    def digits(self, x: int, start: int = 0, stop: int | None = None) -> list[int]:
        """Lanes start .. stop - 1 (by default all) of a normalized vector."""
        b, lane = self.bits, self.lane
        stop = self.lanes if stop is None else stop
        return [x >> k & lane for k in range(start * b, stop * b, b)]

    def normalize(self, x: int) -> int:
        """x with every lane reduced mod p; lanes must not exceed A."""
        return x - self.p * (x * self.mul >> self.shift & self.quot)

    def combination(self, coeffs: Sequence[int], vectors: Sequence[int]) -> int:
        """The normalized sum of coeffs[k] * vectors[k], coefficients in
        [0, p), normalized after every ``width`` terms."""
        step = max(self.width, 1)
        acc = 0
        for k in range(0, len(vectors), step):
            acc = self.normalize(acc + sum(map(mul, coeffs[k : k + step], vectors[k : k + step])))
        return acc


@lru_cache(maxsize=1024)
def layout(p: int, width: int, tags: int = 0) -> Layout:
    """The shared ``Layout`` for (p, width, tags)."""
    return Layout(p, width, tags)


class Echelon:
    """An echelon basis of the vectors inserted so far, packed under one layout."""

    __slots__ = ("layout", "rows")

    def __init__(self, layout: Layout):
        self.layout = layout
        self.rows: list[tuple[int, int]] = []  # (bit offset of the pivot lane, row)

    def copy(self) -> "Echelon":
        """The same basis, open to further inserts; rows are shared, since
        no row changes after it is inserted."""
        twin = Echelon(self.layout)
        twin.rows = self.rows[:]
        return twin

    def reduce(self, x: int) -> int:
        """x minus its projection onto the basis, pivot by pivot, normalized."""
        lay = self.layout
        p, lane = lay.p, lay.lane
        for at, row in self.rows:
            c = (x >> at & lane) % p
            if c:
                x += (p - c) * row
        return x - p * (x * lay.mul >> lay.shift & lay.quot)

    def insert(self, x: int) -> int | None:
        """Add x to the basis; None when it was independent of the basis.

        A dependent x is returned reduced: zero in the first ``width``
        lanes, with whatever the tag lanes accumulated.  This is
        ``reduce`` and the pivot scaling in one call, since every rank
        check runs through it.
        """
        lay = self.layout
        p, lane, rows = lay.p, lay.lane, self.rows
        for at, row in rows:
            c = (x >> at & lane) % p
            if c:
                x += (p - c) * row
        x -= p * (x * lay.mul >> lay.shift & lay.quot)
        low = x & lay.pivots
        if not low:
            return x
        at = (low & -low).bit_length() - 1
        at -= at % lay.bits
        c = x >> at & lane
        if c != 1:
            x *= pow(c, -1, p)
            x -= p * (x * lay.mul >> lay.shift & lay.quot)
        rows.append((at, x))
        return None


def walk(blocks: Sequence, children: Callable, root, unit: int, lay: Layout) -> Iterator:
    """For each leaf t of a pattern trie, in lex order, (t, the echelon of
    the first t_i * unit vectors of every block i, stacked), or (t, None)
    when those are dependent: the full-rank test behind every
    correctability and UDM verdict.  ``children(i, node)`` returns a
    tuple of (t_i, child) in ascending t_i, one level per block; the walk
    takes ``iter()`` of it, so a tuple it returns again starts from its
    first child.  A child ``None`` is the end marker: every deeper entry
    is 0, so the walk yields the prefix padded with zeros at once, with
    no deeper level and no ``children`` call below it (zero entries insert
    nothing).  The vectors are packed under ``lay``.

    One echelon serves the whole walk, and the yielded echelon is valid
    only until the walk advances; copy it to keep it.  As t_i rises, a
    level cuts the deeper rows and inserts only block i's next vectors.
    A dependency at level i is one for every larger t_i too, so the rest
    of that level is yielded as None without an insert.

    The walk is one loop over an explicit stack, one entry per level
    above the current one, so a trie may be as deep as there are blocks.
    A level's entry holds its child iterator, the row count above it (its
    mark), how many of its block's vectors it has inserted and whether its
    prefix is still independent.
    """
    ech = Echelon(lay)
    rows, insert = ech.rows, ech.insert
    n = len(blocks)
    if not n:
        yield (), ech
        return
    t = [0] * n  # entries below level i are 0: a level is zeroed as it is popped
    last = n - 1
    stack = []  # (iterator, mark, done, ok) of each level above level i
    i, it, mark, done, ok = 0, iter(children(0, root)), 0, 0, True
    while True:
        for ti, child in it:
            # t_i = 0 can only be a level's first child: nothing to cut or insert
            if ok and ti:
                del rows[mark + done :]
                for v in blocks[i][done : ti * unit]:
                    if insert(v) is not None:
                        ok = False
                        break
                    done += 1
            t[i] = ti
            if child is None or i == last:
                yield tuple(t), ech if ok else None
            else:
                stack.append((it, mark, done, ok))
                i += 1
                it, mark, done = iter(children(i, child)), len(rows), 0
                break
        else:
            if not stack:
                return
            t[i] = 0
            it, mark, done, ok = stack.pop()
            i -= 1


def tagged(columns: Sequence[int], lay: Layout) -> tuple[Layout, list[int]]:
    """The layout with one tag lane per column, and column k plus a 1 in
    tag lane k, so a reduced vector's tags record the combination of input
    columns that produced it."""
    b, width = lay.bits, lay.width
    vectors = [col + (1 << (width + k) * b) for k, col in enumerate(columns)]
    return layout(lay.p, width, len(columns)), vectors


def solve(columns: Sequence[int], rhs: int, lay: Layout) -> SolveResult:
    """Solve sum_k x_k columns[k] = rhs over Z/p, every vector packed under
    ``lay`` and normalized.

    Inconsistency is reported before ambiguity; a consistent system gets
    the solution that is zero at every free column, and ``free_count`` is
    the kernel dimension.
    """
    tags, vectors = tagged(columns, lay)
    ech = Echelon(tags)
    for v in vectors:
        ech.insert(v)
    left = ech.reduce(rhs)
    if left & tags.pivots:
        return SolveResult("inconsistent", None, 0)
    # rhs - sum c_b b = 0 and each basis vector b carries its combination
    # of columns in its tags, so the tags of the reduced rhs are -x
    p = lay.p
    solution = [-x % p for x in tags.digits(left, tags.width)]
    free = len(columns) - len(ech.rows)
    return SolveResult("unique" if free == 0 else "ambiguous", solution, free)


def inverse(columns: Sequence[int], lay: Layout) -> list[int]:
    """The columns of the inverse of the square matrix with the given
    columns, all packed under ``lay``, whose width is the matrix size."""
    n = lay.width
    if len(columns) != n:
        raise ParameterError("only square matrices can be inverted")
    tags, vectors = tagged(columns, lay)
    ech = Echelon(tags)
    for v in vectors:
        if ech.insert(v) is not None:
            raise ParameterError("matrix is singular")
    # column r of the inverse solves M x = e_r, and the tags of e_r reduced are -x
    p, b = lay.p, lay.bits
    return [
        lay.pack([-x % p for x in tags.digits(ech.reduce(1 << r * b), n)]) for r in range(n)
    ]


def mat_vec(columns: Sequence[int], v: Sequence[int], lay: Layout) -> list[int]:
    """The lanes of sum_k v[k] * columns[k], entries of v in [0, p)."""
    return lay.digits(lay.combination(v, columns))
