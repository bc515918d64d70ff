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

A vector is one int.  Its entry k is *lane* k, bits [k*B, (k+1)*B).  A
``Layout`` has a *width*, the number of lanes pivots are searched in;
lanes past the width are tags that ride along, which is how callers
track which combination of their inputs produced a vector.  Stored
vectors are normalized, every lane in [0, p).  Adding c * row for c in
[0, p) grows each lane by at most (p-1)^2.  An elimination makes at most
``width`` such row operations, and a combination sums products of the
same size, so a layout holds *terms* of them, at least its width and as
many as the longest combination its callers make in one sum: no lane
exceeds A = (p-1) + terms * (p-1)^2 between normalizations.  B depends
on p and terms alone.  One Barrett step then reduces every lane at once:

    x - p * ((x * M >> s) & Q)

with s the bit length of A * (p-1), M = ceil(2^s / p) and B the bit
length of A * M.  Lane k of x * M is a_k * M < 2^B, so the products do
not overlap; shifted right by s, lane k holds floor(a_k * M / 2^s), which
is floor(a_k / p) because a_k * (M*p - 2^s) < 2^s, under the top s bits
of lane k+1's product, which Q, the low B - s bits of every lane, masks
off.  Python ints make any p and terms fit.

``Echelon.insert`` is the elimination of decode plans, witnesses, greedy
GV, code ranks, ``kernel`` and ``inverse`` (``linalg`` answers its
questions about Element matrices through the last two): it keeps the inserted
vectors in echelon form, each scaled to 1 at its pivot, the lowest
non-zero lane of its first ``width`` lanes, and zero at the pivots of the
vectors before it.  A row operation is ``x += (p - c) * row``, with c read
from one lane; an insert normalizes once after its row operations, and a
vector is dependent iff its first ``width`` lanes are then zero.

``walk`` checks a whole pattern trie on one echelon, and runs the same
row loop inline on a list of its own, since a walk is mostly short runs
of vectors and a method call per vector cost as much as the row
operations.  Its rows are append-only between cuts: an independent vector
appends exactly one row and never changes an earlier one, so the first s
rows are the echelon of the first s independent vectors, and ``del
rows[s:]`` rolls the basis back to them.  The walk yields the trie's
dependent leaves only, as tuples, and no echelon: at a leaf it inserts
every vector but the last and only reduces the last, since the row that
vector would make is never read.  Its loop is tested against
``Echelon``'s answers and against a list-row reference.  The walk is one
generator frame over an explicit stack of levels, so it has no depth
limit: a trie has one level per block, and a code may have more symbols
than the interpreter has recursion depth.  A trie's ``children(i,
node)`` returns a tuple, often the same one each time a node is reached,
and the walk takes ``iter()`` of it.  A child may be the end marker
``None``, which says that every deeper entry is 0: the walk decides that
leaf where it stands, so a leaf that its trie ends at level i costs i + 1
levels, not one per block.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Callable, Iterator, Sequence

from .errors import ParameterError


class Layout:
    """How vectors over Z/p with ``width`` pivot lanes and ``tags`` tag
    lanes pack into one int, and the constants that normalize every lane
    at once (see the module notes).  ``terms`` is the most products a lane
    sums between normalizations, at least the width, so a combination of
    up to ``terms`` vectors is one sum and one normalization.  B, M and s
    depend on p and terms only, so vectors packed for a width stay valid
    with tag lanes added under the same terms."""

    __slots__ = ("p", "width", "terms", "lanes", "bits", "lane", "pivots", "mul", "shift", "quot")

    def __init__(self, p: int, width: int, tags: int = 0, terms: int = 0):
        self.terms = terms = max(width, terms, 1)
        top = (p - 1) + terms * (p - 1) ** 2  # A: the largest lane between normalizations
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
        """Lanes start .. stop - 1 (by default all) of a normalized vector.

        Each lane read shifts the whole int, so a layout of more than 64
        lanes cuts out the window and splits it in halves until a piece
        has at most 64 lanes: the readout is then linear in the lane
        count, not quadratic."""
        b, lane = self.bits, self.lane
        stop = self.lanes if stop is None else stop
        if self.lanes <= 64:
            return [x >> k & lane for k in range(start * b, stop * b, b)]
        out, count = [], stop - start
        pieces = [(x >> start * b & (1 << count * b) - 1, count)]  # (int, lanes), the lowest last
        while pieces:
            x, count = pieces.pop()
            if count <= 64:
                out += [x >> k & lane for k in range(0, count * b, b)]
            else:
                half = count // 2
                pieces.append((x >> half * b, count - half))
                pieces.append((x & (1 << half * b) - 1, half))
        return out

    def normalize(self, x: int) -> int:
        """x with every lane reduced mod p; lanes must not exceed A."""
        return x - self.p * (x * self.mul >> self.shift & self.quot)

    def combination(self, coeffs: Sequence[int], vectors: Sequence[int]) -> int:
        """The normalized sum of coeffs[k] * vectors[k], coefficients in
        [0, p), vectors normalized: one sum and one normalization for up
        to ``terms`` vectors, and one normalization per ``terms`` beyond."""
        terms = self.terms
        if len(vectors) <= terms:
            x = sum(map(mul, coeffs, vectors))
            return x - self.p * (x * self.mul >> self.shift & self.quot)
        acc = 0
        for k in range(0, len(vectors), terms):
            acc = self.normalize(acc + sum(map(mul, coeffs[k : k + terms], vectors[k : k + terms])))
        return acc


@lru_cache(maxsize=1024)
def layout(p: int, width: int, tags: int = 0, terms: int = 0) -> Layout:
    """The shared ``Layout`` for (p, width, tags, terms)."""
    return Layout(p, width, tags, terms)


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


def walk(blocks: Sequence, children: Callable, root, unit: int, lay: Layout) -> Iterator[tuple]:
    """The dependent leaves t of a pattern trie, in lex order: the leaves
    whose first t_i * unit vectors of every block i, stacked, are
    dependent.  This is the full-rank test behind every correctability
    and UDM verdict: a trie's patterns are all independent iff the walk
    yields nothing.  ``children(i, node)`` returns a tuple of (t_i, child)
    in ascending t_i, one level per block; the walk takes ``iter()`` of
    it, so a tuple it returns again starts from its first child.  A child
    ``None`` is the end marker: every deeper entry is 0, so the walk
    decides the prefix padded with zeros at once, with no deeper level
    and no ``children`` call below it (zero entries add nothing).  A block
    shorter than t_i * unit gives the vectors it has.  The vectors are
    packed under ``lay``, and each is read by index, once per insert or
    reduction.

    One echelon serves the whole walk: a list of (bit offset of the pivot
    lane, row), eliminated by ``Echelon.insert``'s row loop written out
    inline once, for leaves and inner levels alike.  As t_i rises, a level
    cuts the deeper rows, if there are any, and inserts only block i's
    next vectors.  At a leaf the level inserts all of them but the last
    and only reduces the last: the leaf is independent iff that reduction
    keeps a nonzero pivot lane, and a later sibling that needs the vector
    inserts it then.  A leaf that adds no vector decides nothing, and has
    its prefix's verdict.  A dependency at level i is one for every larger
    t_i too, so the rest of that level is yielded without work.

    The walk is one loop over an explicit stack, one entry per level
    above the current one, so a trie may be as deep as there are blocks.
    A level's entry holds its child iterator, the row count above it (its
    mark), how many of its block's vectors it has inserted and whether its
    prefix is still independent.
    """
    n = len(blocks)
    if not n:
        return  # a trie of no levels: its root is its leaf, and nothing is dependent
    p, lane, bits, pivots = lay.p, lay.lane, lay.bits, lay.pivots
    mul, shift, quot = lay.mul, lay.shift, lay.quot
    sizes = [len(block) for block in blocks]
    rows = []  # the echelon: (bit offset of the pivot lane, row)
    t = [0] * n  # entries below level i are 0: a level is zeroed as it is popped
    last = n - 1
    stack = []  # (iterator, mark, done, ok) of each level above level i
    i, it, mark, done, ok = 0, iter(children(0, root)), 0, 0, True
    while True:
        for ti, child in it:
            leaf = child is None or i == last
            # t_i = 0 can only be a level's first child: nothing to cut or add
            if ok and ti:
                if len(rows) > mark + done:
                    del rows[mark + done :]
                block = blocks[i]
                stop = ti * unit if ti * unit < sizes[i] else sizes[i]
                final = stop - 1 if leaf else stop  # the vector only reduced
                while done < stop:
                    x = block[done]
                    for at, row in rows:
                        c = (x >> at & lane) % p
                        if c:
                            x += (p - c) * row
                    x -= p * (x * mul >> shift & quot)
                    low = x & pivots
                    if not low:
                        ok = False
                        break
                    if done == final:
                        break
                    at = (low & -low).bit_length() - 1
                    at -= at % bits
                    c = x >> at & lane
                    if c != 1:
                        x *= pow(c, -1, p)
                        x -= p * (x * mul >> shift & quot)
                    rows.append((at, x))
                    done += 1
            if leaf:
                if not ok:
                    t[i] = ti
                    yield tuple(t)
                continue
            t[i] = ti
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
    """The layout with lay's width and terms (so its lanes) and one tag
    lane per column, and column k plus a 1 in tag lane k, so a reduced
    vector's tags record the combination of input columns that produced
    it."""
    b, width = lay.bits, lay.width
    vectors = [col + (1 << (width + k) * b) for k, col in enumerate(columns)]
    return layout(lay.p, width, len(columns), lay.terms), vectors


def kernel(columns: Sequence[int], lay: Layout, deg: int) -> list[list[int] | None]:
    """Per block of ``deg`` consecutive columns, all packed under ``lay``:
    None when the block's first column is independent of the columns
    before it, else the tag lanes of that column reduced, a kernel vector
    that is 1 at that column and 0 at every later one.  A block is a
    column over a field of degree ``deg`` over Z/p, times each of its
    power units, so a block is independent of the blocks before it iff
    its first column is (see ``linalg``); the non-None entries are the
    canonical kernel basis over that field, digit by digit."""
    tags, vectors = tagged(columns, lay)
    ech = Echelon(tags)
    out = []
    for start in range(0, len(vectors), deg):
        left = ech.insert(vectors[start])
        if left is None:
            for v in vectors[start + 1 : start + deg]:
                ech.insert(v)
            out.append(None)
        else:
            out.append(tags.digits(left, tags.width))
    return out


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
