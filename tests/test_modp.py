"""The packed prime-field kernel against the list-row kernel it replaced.

``modp`` packs a vector over Z/p into one int, entry k in lane k of B
bits, and normalizes every lane at once with one Barrett step.
``reference.ListEchelon`` is the kernel as it was before: rows are lists
of digits, reduced entry by entry.  Every comparison unpacks the packed
rows to (pivot, digits) and asks for the reference's rows exactly, over
p in {2, 3, 7, 11, 251, 65521}, with rank-deficient blocks, tagged
systems, and vectors that drive a lane to its largest value between
normalizations, A = (p-1) + terms * (p-1)^2, by an elimination of
``width`` pivots or by a combination of ``terms`` products.

``modp.walk`` descends a pattern trie depth first on one echelon: a
level keeps the rows of the prefix above it and inserts only its block's
next vectors as t_i rises, a leaf inserts all of its vectors but the last
and only reduces the last, and after a dependency the rest of the level
fails without work.  ``reference_prefix_echelons`` eliminates every
pattern from scratch on a fresh list echelon.  The walk must yield, in
lex order, exactly the leaves whose reference echelon is None.
"""

import itertools
import random
import sys

import pytest

from hierasure import (
    BalancedFamily,
    FullFamily,
    ParameterError,
    PowerFamily,
    UdmSet,
    enumerate_family,
    greedy_gv_code,
    is_correcting,
    make_field,
    make_tower,
    maximal_patterns,
    modp,
    patterns,
    verify_udm,
    vontobel_udms,
)
from hierasure.patterns import family_trie, sorted_trie
from reference import (
    ListEchelon,
    reference_inverse,
    reference_is_correcting,
    reference_mat_vec,
    reference_prefix_echelons,
    reference_verify_udm,
)
from towers import LONG, trace_instance

PRIMES = [2, 3, 7, 11, 251, 65521]


def top(p, width):
    """A: the largest lane value an elimination of ``width`` pivots reaches."""
    return (p - 1) + max(width, 1) * (p - 1) ** 2


def unpacked(ech):
    lay = ech.layout
    return [(at // lay.bits, lay.digits(row)) for at, row in ech.rows]


def packed_blocks(blocks, p):
    width = next((len(v) for block in blocks for v in block), 0)
    lay = modp.layout(p, width)
    return [[lay.pack(v) for v in block] for block in blocks], lay


def both(blocks, patterns, unit, p, trie=None):
    """The walk over ``trie`` (by default the trie of the lex-sorted
    ``patterns``, which must be its leaves) against fresh reference
    echelons: the walk must yield, in order, exactly the patterns whose
    reference echelon is None.  Returns the reference's (t, rows or None)
    per pattern."""
    packed, lay = packed_blocks(blocks, p)
    got = list(modp.walk(packed, *(trie or sorted_trie(patterns)), unit, lay))
    want = [
        (t, None if ech is None else list(ech.rows))
        for t, ech in reference_prefix_echelons(blocks, patterns, unit, p)
    ]
    assert got == [t for t, rows in want if rows is None]
    return want


def counting(monkeypatch):
    """The ``Echelon.insert`` and ``Echelon.reduce`` calls made from now
    on, one list entry per call."""
    counts = {"insert": [], "reduce": []}
    for name, calls in counts.items():
        real = getattr(modp.Echelon, name)
        monkeypatch.setattr(
            modp.Echelon, name, lambda ech, v, real=real, calls=calls: calls.append(1) or real(ech, v)
        )
    return counts


WALK = modp.walk  # the walk itself, however often a test watches it


class Reads(list):
    """A block that records the index of each vector read from it."""

    def __init__(self, vectors, reads):
        super().__init__(vectors)
        self.reads = reads

    def __getitem__(self, k):
        self.reads.append(k)
        return list.__getitem__(self, k)


def watching(monkeypatch):
    """The work of every ``modp.walk`` from now on: ``reads`` gets one
    entry per vector read from a block, and the walk reads a vector once
    per insert or reduction; ``appends`` gets one per row appended to the
    walk's echelon, that is per independent insert.  Appends are the
    ``append`` calls of the walk's frame on its list ``rows``, seen by a
    profile hook that is set only while the walk runs."""
    counts = {"reads": [], "appends": []}

    def hook(frame, event, arg):
        if (
            event == "c_call"
            and frame.f_code is WALK.__code__
            and getattr(arg, "__name__", None) == "append"
            and arg.__self__ is frame.f_locals["rows"]
        ):
            counts["appends"].append(1)

    def watched(blocks, *args):
        gen = WALK([Reads(block, counts["reads"]) for block in blocks], *args)
        while True:
            previous = sys.getprofile()
            sys.setprofile(hook)
            try:
                t = next(gen)
            except StopIteration:
                return
            finally:
                sys.setprofile(previous)
            yield t

    monkeypatch.setattr(modp, "walk", watched)
    return counts


def random_blocks(rng, p, unit, n, height):
    """n blocks of up to 3 * unit vectors: some rank-deficient (a zero
    vector, a multiple of an earlier vector), one vector repeated across
    blocks, and some blocks shorter than the largest pattern asks for."""
    blocks = []
    for _ in range(n):
        block = [[rng.randrange(p) for _ in range(height)] for _ in range(rng.randrange(3 * unit + 1))]
        kind = rng.randrange(4)
        if block and kind == 0:
            block[rng.randrange(len(block))] = [0] * height
        elif len(block) >= 2 and kind == 1:
            c = rng.randrange(1, p)
            block[-1] = [c * x % p for x in block[0]]
        blocks.append(block)
    donors = [v for block in blocks for v in block]
    if donors:
        target = rng.choice(blocks)
        target.append(list(rng.choice(donors)))
    return blocks


def random_columns(rng, p, height, ncols):
    """Random columns, some zero and some combinations of earlier ones."""
    cols = []
    for _ in range(ncols):
        kind = rng.randrange(5)
        if kind == 0:
            cols.append([0] * height)
        elif kind == 1 and cols:
            a, b = rng.choice(cols), rng.choice(cols)
            c, d = rng.randrange(p), rng.randrange(p)
            cols.append([(c * x + d * y) % p for x, y in zip(a, b)])
        else:
            cols.append([rng.choice([rng.randrange(p), p - 1]) for _ in range(height)])
    return cols


def family_grid(n):
    """(maximal patterns or members, trie) of full, balanced and power
    families on n symbols, entries up to 4."""
    for fam in (FullFamily(4, 2 * n, n), FullFamily(4, n, n), BalancedFamily(4, n), PowerFamily(4, n)):
        yield list(maximal_patterns(fam)), family_trie(fam)
        yield list(enumerate_family(fam)), family_trie(fam, all_patterns=True)


@pytest.mark.parametrize("unit", [1, 2, 3])
@pytest.mark.parametrize("p", PRIMES)
def test_walk_matches_fresh_echelons(p, unit):
    # random blocks, some rank-deficient or shorter than t_i * unit, walked
    # over every family trie, the whole box and random pattern lists
    rng = random.Random(f"{p}/{unit}")
    verdicts = set()
    for _ in range(12):
        n = rng.randrange(1, 4)
        height = rng.randrange(2, 3 * unit * n + 2)
        blocks = random_blocks(rng, p, unit, n, height)
        lex = list(itertools.product(range(5), repeat=n))  # all-zero first
        some = sorted(rng.sample(lex, rng.randrange(1, len(lex) + 1)))
        cases = [(lex, None), (some, None), ([(0,) * n], None), *family_grid(n)]
        for patterns, trie in cases:
            for _, rows in both(blocks, patterns, unit, p, trie):
                verdicts.add(rows is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("unit", [1, 2])
@pytest.mark.parametrize("p", [2, 7, 65521])
def test_dependency_at_the_first_and_the_last_symbol(p, unit):
    # symbol 0 opens with a zero vector, so every pattern with t_0 > 0
    # fails at depth 0; or the last symbol's second unit opens with symbol
    # 0's first vector, so a pattern that erases symbol 0 fails at its last
    # symbol once t_{n-1} > 1.  The blocks are tall enough that random
    # vectors are independent otherwise
    rng = random.Random(f"ends/{p}/{unit}")
    for n in (2, 4):
        height = 8 * unit * n + 8
        fresh = [[[rng.randrange(p) for _ in range(height)] for _ in range(4 * unit)] for _ in range(n)]
        first = [b[:] for b in fresh]
        first[0][0] = [0] * height
        last = [b[:] for b in fresh]
        last[-1][unit] = list(fresh[0][0])
        for blocks, fails in ((first, lambda t: t[0] > 0), (last, lambda t: t[0] > 0 and t[-1] > 1)):
            for patterns, trie in family_grid(n):
                got = both(blocks, patterns, unit, p, trie)
                assert [t for t, rows in got if rows is None] == [t for t in patterns if fails(t)]


@pytest.mark.parametrize("unit", [1, 2])
@pytest.mark.parametrize("p", [2, 65521])
def test_walk_at_the_lane_bound(p, unit):
    # width independent vectors, vector k zero before lane k, then
    # ``pivot`` and p - 1: every digit p - 1 (pivot p - 1), or rows that
    # need no scaling (pivot 1), so a row operation with c = 1 adds
    # (p-1)^2 to every later lane.  After the first r of them comes their
    # rows' sum, a combination of the others, whose reduction reads c = 1
    # at every pivot and so adds (p - 1) * row each time: r row operations
    # before its one normalization.  Its last lane reaches A itself at
    # p = 2, width 9 and r = width, and a lane outside the pivots at
    # r = width - 1.  A leaf is dependent iff it takes that sum and the r
    # vectors before it, so its last vector's reduction or a later
    # vector's insert finds it
    for pivot in sorted({p - 1, 1}):
        later = 1 if pivot == p - 1 else p - 1  # a row's lanes after its pivot, scaled to 1
        for width, split in ((4, (2, 2, 1)), (9, (4, 3, 3))):
            vectors = [[0] * k + [pivot] + [p - 1] * (width - 1 - k) for k in range(width)]
            rows = [[0] * k + [1] + [later] * (width - 1 - k) for k in range(width)]
            for r in (width, width - 1):
                stacked = vectors[:r] + [[sum(lane) % p for lane in zip(*rows[:r])]] + vectors[r:]
                blocks = [stacked[sum(split[:i]) : sum(split[: i + 1])] for i in range(len(split))]
                needed = [(i, k) for i, size in enumerate(split) for k in range(size)][: r + 1]
                box = itertools.product(*(range(-(-size // unit) + 2) for size in split))
                got = both(blocks, list(box), unit, p)
                dependent = [t for t, _ in got if all(t[i] * unit > k for i, k in needed)]
                assert [t for t, ech in got if ech is None] == dependent


def test_all_zero_pattern_and_empty_blocks():
    assert both([[[1, 0]], [[0, 1]]], [(0, 0)], 1, 3) == [((0, 0), [])]
    assert both([(), ()], [(0, 0), (1, 2)], 2, 5) == [((0, 0), []), ((1, 2), [])]
    # a trie of no levels: its root is its leaf, independent, so nothing is yielded
    assert both([], [()], 1, 3) == [((), [])]
    assert list(modp.walk([], *sorted_trie([()]), 1, modp.layout(3, 0))) == []


def test_power_dead_end_reports_no_failure():
    # entries 0 or powers of two up to 8 on three symbols, total 8, with
    # only the budget bound pruning: the prefix (1,) leaves 7, which no two
    # such entries make, so its subtree has no leaf.  Symbol 1's fourth
    # vector repeats symbol 0's first, so (1, 4) is dependent; it is the
    # dead end's last entry, so no leaf reports it, and symbol 0's next
    # value starts afresh.  Only the leaves above (1, 4) fail
    values = [0, 1, 2, 4, 8]

    def children(i, left):
        return tuple((v, left - v) for v in values if v <= left and left - v <= (2 - i) * 8)

    rng = random.Random("dead end")
    blocks = [[[rng.randrange(7) for _ in range(24)] for _ in range(8)] for _ in range(3)]
    blocks[1][3] = list(blocks[0][0])
    fam = PowerFamily(8, 3)
    maxima = list(maximal_patterns(fam))
    assert [t for t in maxima if t[0] == 1] == [] and (0, 8, 0) in maxima
    got = both(blocks, maxima, 1, 7, (children, 8))
    assert [t for t, rows in got if rows is None] == [t for t in maxima if t[0] and t[1] >= 4]
    # the exact power rule has no dead end: its trie is the same leaves
    assert both(blocks, maxima, 1, 7, family_trie(fam)) == got


def test_walk_deeper_than_the_recursion_limit():
    # one level per block on an explicit stack: the full:1 maxima of 1,100
    # symbols, each a single 1, come in lex order, so the last symbol's
    # first.  With every vector zero, every leaf is dependent and yielded;
    # with only the last symbol's zero, only its leaf is
    lay = modp.layout(3, 2)
    trie = family_trie(FullFamily(2, 1, LONG))
    got = list(modp.walk([[0]] * LONG, *trie, 1, lay))
    assert [t.index(1) for t in got] == list(reversed(range(LONG)))
    assert all(sum(t) == 1 for t in got)
    blocks = [[lay.pack([1, 2])]] * (LONG - 1) + [[0]]
    assert list(modp.walk(blocks, *trie, 1, lay)) == got[:1]


def test_a_spent_budget_ends_the_path(monkeypatch):
    # full:1 on LONG symbols has LONG leaves, each a single 1: after the 1
    # the budget is spent, so the walk and the enumerator yield the leaf
    # there, and the trie's children are read about once per leaf, not
    # once per level of every leaf (LONG^2 / 2 calls)
    calls = []

    def counted(fam, all_patterns=False):
        children, root = family_trie(fam, all_patterns)
        return (lambda i, node: calls.append(i) or children(i, node)), root

    fam = FullFamily(2, 1, LONG)
    lay = modp.layout(3, 2)
    got = list(modp.walk([[0]] * LONG, *counted(fam), 1, lay))  # zero vectors: every leaf is dependent
    assert len(got) == LONG and len(calls) <= 2 * LONG
    calls.clear()
    monkeypatch.setattr(patterns, "family_trie", counted)
    assert list(maximal_patterns(fam)) == got and len(calls) <= 2 * LONG


@pytest.mark.parametrize("p", PRIMES)
def test_tagged_systems_match_reference(p):
    # inverse on square systems, some singular (solves are answered by
    # ``modp.kernel`` in ``linalg``, tested against Element elimination)
    rng = random.Random(f"tagged/{p}")
    singular = set()
    for _ in range(60):
        height = rng.randrange(0, 7)
        lay = modp.layout(p, height)
        cols = random_columns(rng, p, height, height)
        packed = [lay.pack(c) for c in cols]
        want = reference_inverse(cols, p)
        singular.add(want is None)
        if want is None:
            with pytest.raises(ParameterError):
                modp.inverse(packed, lay)
        else:
            assert [lay.digits(c) for c in modp.inverse(packed, lay)] == want
    assert singular == {True, False}


@pytest.mark.parametrize("p", PRIMES)
def test_lanes_at_their_maximum(p):
    # width rows, each 1 at its pivot and p - 1 in every later lane and in
    # one tag lane, then vectors reduced against all of them: one with
    # every entry p - 1, and one whose pivot lanes make every row
    # operation add (p - 1) * row, so its tag lane reaches A exactly
    for width in (1, 2, 5, 16, 40):
        rows = [[0] * i + [1] + [p - 1] * (width - i) for i in range(width)]
        tuned = [(1 - i) % p for i in range(width)] + [p - 1]
        flat = [p - 1] * (width + 1)
        lanes = list(tuned)  # the tuned vector reduced without any mod
        for i, row in enumerate(rows):
            c = lanes[i] % p
            lanes = [x + (p - c) * y for x, y in zip(lanes, row)]
        assert max(lanes) == top(p, width)

        lay = modp.layout(p, width, 1)
        ech, ref = modp.Echelon(lay), ListEchelon(p, width)
        for row in rows:
            assert ech.insert(lay.pack(row)) is None and ref.insert(row) is None
        for v in (tuned, flat):
            assert lay.digits(ech.insert(lay.pack(v))) == ref.insert(v)
        assert unpacked(ech) == ref.rows


@pytest.mark.parametrize("p", PRIMES)
def test_normalize_reduces_every_lane_up_to_the_bound(p):
    # the lane values next to A and next to each multiple of p below it,
    # where a quotient one too large or a product spilling into the next
    # lane would show, and random ones
    rng = random.Random(f"normalize/{p}")
    for width in (1, 3, 8, 64):
        a = top(p, width)
        lay = modp.layout(p, width, 2)
        edge = [a, a - 1, a - a % p - 1, a - a % p, p - 1, p, 0, (p - 1) ** 2]
        values = [v for v in edge if v >= 0] + [rng.randrange(a + 1) for _ in range(200)]
        for k in range(0, len(values), lay.lanes):
            chunk = (values[k : k + lay.lanes] + values[: lay.lanes])[: lay.lanes]
            x = sum(v << j * lay.bits for j, v in enumerate(chunk))
            assert lay.digits(lay.normalize(x)) == [v % p for v in chunk]


@pytest.mark.parametrize("p", PRIMES)
def test_mat_vec_and_long_combinations_match_reference(p):
    rng = random.Random(f"matvec/{p}")
    for n in (1, 2, 4, 8):
        lay = modp.layout(p, n)
        for _ in range(10):
            cols = random_columns(rng, p, n, n)
            v = [rng.choice([rng.randrange(p), p - 1]) for _ in range(n)]
            packed = [lay.pack(c) for c in cols]
            assert modp.mat_vec(packed, v, lay) == reference_mat_vec(cols, v, p)
        # more terms than the width: normalized every width terms
        cols = [[p - 1] * n for _ in range(3 * n + 1)] + random_columns(rng, p, n, 2 * n)
        coeffs = [p - 1] * (3 * n + 1) + [rng.randrange(p) for _ in range(2 * n)]
        got = lay.combination(coeffs, [lay.pack(c) for c in cols])
        assert lay.digits(got) == reference_mat_vec(cols, coeffs, p)


@pytest.mark.parametrize("p", PRIMES)
def test_combination_of_exactly_terms_products_at_their_maximum(p):
    # every coefficient and every lane p - 1, so each lane of one sum of
    # ``terms`` products reaches terms * (p - 1)^2 = A - (p - 1), the most a
    # single normalization takes; one product more, and twice as many plus
    # one, take a normalization per ``terms`` products
    for width, terms in ((1, 1), (2, 9), (4, 16), (3, 64), (2, 2200)):
        lay = modp.layout(p, width, 3, terms)
        assert lay.terms == terms
        assert (terms * (p - 1) ** 2).bit_length() <= lay.bits
        col = [p - 1] * lay.lanes
        for count in (terms, terms + 1, 2 * terms + 1):
            coeffs = [p - 1] * count
            got = lay.combination(coeffs, [lay.pack(col)] * count)
            assert lay.digits(got) == reference_mat_vec([col] * count, coeffs, p), (width, terms, count)


@pytest.mark.parametrize("p", [2, 7, 65521])
def test_digits_reads_every_window_lane_by_lane(p):
    # past 64 lanes the readout splits the int in halves down to 64 lanes;
    # every window, the whole vector and ones that cross the halves (1,100,
    # 550, 275, ... of 2,200 lanes; 32 of 65), must read what one shift
    # per lane reads
    rng = random.Random(f"digits/{p}")
    for lanes in (1, 63, 64, 65, 2200):
        lay = modp.layout(p, 1, lanes - 1)
        digits = [rng.choice([0, p - 1, rng.randrange(p)]) for _ in range(lanes)]
        x = lay.pack(digits)
        cuts = {0, lanes, lanes // 2, lanes // 4, 32, 33, 64, 65, 137, 138, 550, 1100}
        cuts = sorted({c + d for c in cuts for d in (-1, 0, 1) if 0 <= c + d <= lanes})
        windows = [(a, b) for a in cuts for b in cuts if a <= b]
        windows += [tuple(sorted(rng.sample(range(lanes + 1), 2))) for _ in range(40)] if lanes > 1 else []
        assert lay.digits(x) == digits
        for start, stop in windows:
            want = [x >> k * lay.bits & lay.lane for k in range(start, stop)]
            assert lay.digits(x, start, stop) == want == digits[start:stop], (lanes, start, stop)
        assert lay.digits(x, lanes // 3) == digits[lanes // 3 :]


def test_tagged_keeps_the_lanes_of_its_layout():
    # a layout whose terms exceed its width: the tagged system's lanes have
    # its bits, so the packed columns stay valid with their tags added
    for p in PRIMES:
        lay = modp.layout(p, 3, 0, 40)
        tags, vectors = modp.tagged([lay.pack([1, 2 % p, 0])], lay)
        assert (tags.width, tags.terms, tags.bits, tags.lanes) == (3, 40, lay.bits, 4)
        assert tags.digits(vectors[0]) == [1, 2 % p, 0, 1]


def test_copy_shares_rows_and_grows_apart():
    lay = modp.layout(5, 3)
    ech = modp.Echelon(lay)
    ech.insert(lay.pack([0, 2, 1]))
    twin = ech.copy()
    assert twin.rows == ech.rows and twin.rows is not ech.rows
    twin.insert(lay.pack([1, 0, 0]))
    assert (len(ech.rows), len(twin.rows)) == (1, 2)


class TestSharing:
    # block 0's second vector repeats its first, so any pattern with t_0 = 2
    # is dependent at block 0's second vector
    BLOCKS = [[[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 1]]]

    def calls(self, monkeypatch, patterns, blocks=BLOCKS, unit=1, trie=None):
        """(t, reads, appends) per dependent leaf the walk yields, the
        vectors read (each one insert or one reduction) and the rows
        appended since the last yield, then ("end", reads, appends) for the
        rest of the walk."""
        packed, lay = packed_blocks(blocks, 3)
        counts = watching(monkeypatch)

        def made():
            out = (len(counts["reads"]), len(counts["appends"]))
            for calls in counts.values():
                calls.clear()
            return out

        got = [(t, *made()) for t in modp.walk(packed, *(trie or sorted_trie(patterns)), unit, lay)]
        return got + [("end", *made())]

    def test_failed_prefix_kept_by_the_next_pattern_inserts_nothing(self, monkeypatch):
        got = self.calls(monkeypatch, [(2, 0), (2, 1), (2, 2)])
        assert got == [((2, 0), 2, 1), ((2, 1), 0, 0), ((2, 2), 0, 0), ("end", 0, 0)]
        both(self.BLOCKS, [(2, 0), (2, 1), (2, 2)], 1, 3)

    def test_failed_level_inserts_nothing_for_larger_values(self, monkeypatch):
        # (1, 2) inserts e0 and e1 and reduces e2; t_0 = 2 fails, so t_0 = 3
        # and its subtree fail without work
        blocks = [[[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], [[0, 1, 0, 0], [0, 0, 1, 0]]]
        patterns = [(1, 2), (2, 0), (2, 1), (3, 0), (3, 2)]
        got = self.calls(monkeypatch, patterns, blocks)
        assert got == [((2, 0), 4, 2), ((2, 1), 0, 0), ((3, 0), 0, 0), ((3, 2), 0, 0), ("end", 0, 0)]
        both(blocks, patterns, 1, 3)

    def test_pattern_that_leaves_the_failed_prefix_inserts_its_own(self, monkeypatch):
        # block 1's vectors are equal, so (0, 2) fails at its leaf's
        # reduction; (1, 0) leaves that prefix, cuts block 1's row and
        # inserts block 0's, and (1, 1) only reduces block 1's first
        blocks = [[[1, 0], [1, 0]], [[0, 1], [0, 1]]]
        got = self.calls(monkeypatch, [(0, 2), (1, 0), (1, 1)], blocks)
        assert got == [((0, 2), 2, 1), ("end", 2, 1)]
        both(blocks, [(0, 2), (1, 0), (1, 1)], 1, 3)

    def test_shared_rows_are_kept_not_rebuilt(self, monkeypatch):
        # lex order: each pattern adds only what follows its shared prefix,
        # and a leaf's last vector is reduced, not inserted: (0, 2) inserts
        # e1 and reduces e2, (1, 0) inserts e0, (1, 1) reduces e1, (1, 2)
        # inserts e1 and reduces e2
        got = self.calls(monkeypatch, [(0, 2), (1, 0), (1, 1), (1, 2)])
        assert got == [("end", 6, 3)]

    @pytest.mark.parametrize("unit", [1, 2])
    def test_leaf_whose_last_vector_alone_is_dependent(self, monkeypatch, unit):
        # the leaf's earlier vectors are independent and its last repeats
        # block 0's first, so only the reduction finds the dependency; the
        # sibling before it reduced a vector that this leaf inserts.  Unit
        # 1: insert e0; insert e1, reduce e2; insert e2, reduce e0.  Unit 2:
        # insert e0, e1; insert e2, reduce e3; insert e3, e4, reduce e0
        e = [[int(j == k) for j in range(2 * unit + 1)] for k in range(2 * unit + 1)]
        blocks = [e[:unit], e[unit:] + [e[0]]]
        patterns = [(1, 2), (1, 3)] if unit == 1 else [(1, 1), (1, 2)]
        got = self.calls(monkeypatch, patterns, blocks, unit)
        assert got == [(patterns[1], 2 * unit + 3, 2 * unit + 1), ("end", 0, 0)]
        assert [rows is None for _, rows in both(blocks, patterns, unit, 3)] == [False, True]

    def test_leaf_followed_by_a_non_leaf_sibling(self, monkeypatch):
        # level 0 ends the leaf (1, 0) with the end marker and reduces e0
        # there; its sibling t_0 = 2 descends, so it inserts e0 and e1,
        # and (2, 1) reduces block 1's e0 + e1 to a dependency
        blocks = [[[1, 0], [0, 1]], [[1, 1]]]
        kids = {(0, "root"): ((1, None), (2, "two")), (1, "two"): ((0, None), (1, None))}
        trie = (lambda i, node: kids[i, node]), "root"
        patterns = [(1, 0), (2, 0), (2, 1)]
        got = self.calls(monkeypatch, patterns, blocks, trie=trie)
        assert got == [((2, 1), 4, 2), ("end", 0, 0)]
        both(blocks, patterns, 1, 3, trie)
        # in a sorted trie every leaf is at the last level: the leaf (0, 2)
        # inserts block 1's first vector and reduces its equal second, and
        # is followed by its parent's non-leaf sibling t_0 = 1, which cuts
        # that row and inserts e0; (1, 1) then reduces block 1's first
        blocks = [[[1, 0]], [[1, 1], [1, 1]]]
        got = self.calls(monkeypatch, [(0, 2), (1, 1)], blocks)
        assert got == [((0, 2), 2, 1), ("end", 2, 1)]
        both(blocks, [(0, 2), (1, 1)], 1, 3)

    def test_block_shorter_than_the_leaf(self, monkeypatch):
        # unit 2: block 1 has one vector where t_1 = 1 asks for two and
        # t_1 = 2 for four, so each leaf reduces the one it has; block 0's
        # third vector repeats its first, so t_0 = 2 fails
        blocks = [[[1, 0, 0], [0, 1, 0], [1, 0, 0]], [[0, 0, 1]]]
        patterns = [(1, 1), (1, 2), (2, 0), (2, 1)]
        got = self.calls(monkeypatch, patterns, blocks, unit=2)
        assert got == [((2, 0), 5, 2), ((2, 1), 0, 0), ("end", 0, 0)]
        assert [rows is None for _, rows in both(blocks, patterns, 2, 3)] == [False, False, True, True]
        # block 1's only vector repeats block 0's
        short = [[[1, 0]], [[1, 0]]]
        assert [rows is None for _, rows in both(short, [(1, 1), (1, 2), (2, 3)], 2, 3)] == [True] * 3
        # an empty block decides nothing, so its leaf has its prefix's verdict
        empty = [blocks[0], []]
        assert [rows is None for _, rows in both(empty, [(1, 1), (2, 2)], 2, 3)] == [False, True]


class TestVerdictOrder:
    # verify-trace's instance: the trace code of the (8, 4, 5) UDM set over GF(7)
    def test_trace_code_refutation_matches_reference(self):
        _, code = trace_instance()
        assert is_correcting(code, code.claim).correcting
        fam = FullFamily(4, 6, 8)
        report = is_correcting(code, fam)
        ok, t, witness = reference_is_correcting(code, fam, all_patterns=False)
        assert not ok
        assert (report.correcting, report.pattern, report.witness) == (ok, t, witness)

    def test_tampered_udm_counterexample_matches_reference(self):
        u, _ = trace_instance()
        mats = list(u.matrices)
        # matrix 5's second row becomes matrix 2's first, so the set fails,
        # though not on the first pattern of the lex walk
        tampered = [list(row) for row in mats[5]]
        tampered[1] = mats[2][0]
        mats[5] = tuple(tuple(row) for row in tampered)
        bad = UdmSet(u.field, u.alpha, u.m, tuple(mats))
        check = verify_udm(bad)
        assert not check.ok
        assert (check.ok, check.counterexample) == reference_verify_udm(bad)
        first = next(iter(maximal_patterns(FullFamily(u.alpha, u.m, u.n))))
        assert check.counterexample != first


class TestInsertCounts:
    """The work of whole checks, pinned apart: each stacked vector is
    inserted once per prefix that first needs it below a leaf, a leaf's
    last vector is only reduced, and no work follows a dependency at its
    level.  A walk is counted in the vectors it reads (each one insert or
    one reduction) and the rows it appends (the independent inserts); it
    makes no ``Echelon`` call.  Greedy GV grows its echelons with
    ``Echelon`` and is counted in its calls; the field's construction is
    counted apart, for its irreducibility test."""

    @pytest.fixture
    def counts(self, monkeypatch):
        return counting(monkeypatch)

    def test_trace_code_claim_and_refutation(self, monkeypatch):
        # the claim's 784 maxima all pass, each with one reduction: 1,274
        # reads, of which 490 append a row and 784 are the leaves'
        # reductions, where an insert per leaf's last vector made 1,274
        # appends.  The refutation's walk reads 579 vectors and appends
        # 321 rows: its dependency is found by a leaf's reduction, and its
        # witness then inserts the pattern's 6 tagged columns
        _, code = trace_instance()
        for i in range(code.n):
            code.block(i)
        calls = counting(monkeypatch)
        work = watching(monkeypatch)
        reads, appends = work["reads"], work["appends"]
        assert is_correcting(code, code.claim).correcting
        assert (len(reads), len(appends)) == (1274, 490)
        assert len(reads) - len(appends) == len(list(maximal_patterns(code.claim))) == 784
        assert (calls["insert"], calls["reduce"]) == ([], [])
        reads.clear(), appends.clear()
        report = is_correcting(code, FullFamily(4, 6, 8))  # with its witness
        assert report.pattern == (0, 0, 1, 1, 1, 1, 1, 1)
        assert (len(reads), len(appends)) == (579, 321)
        assert (len(calls["insert"]), len(calls["reduce"])) == (6, 0)

    def test_greedy_gv(self, counts):
        # the grown echelons take, for each pattern of total 1 .. m - 1 on
        # the first n - 1 columns, e times its last nonzero entry inserts:
        # the echelon of the pattern cut before that column, copied, takes
        # that column's first t*e vectors.  A candidate's trial inserts each
        # of its vectors but the last and only reduces the last: 88 trial
        # inserts and 1,188 trial reduces.  The other 2 inserts check that
        # the decoding basis is one; nothing converts coordinates, so its
        # inverse is never made.  The tower takes 11 inserts, each test
        # inserting the columns of Q - I past K's units, then Q's, and
        # stopping at the first dependent one: GF(2)'s modulus y has no
        # column of Q - I and Q = (1), 1 insert; the seeded search then
        # tries y^2 + 1 (Q - I: 1 + y, independent; Q: 1, 1, the second
        # dependent: 3 inserts), y^2 (-y; 1, 0: 3), y^2 + y (Q = I, so the
        # first column of Q - I is 0: 1) and y^2 + y + 1 (1; 1, y + 1:
        # 3)
        inserts, reduces = counts["insert"], counts["reduce"]
        n, m, e = 14, 3, 1
        ext = make_tower(2, 1, 2, 0)
        grown = sum(
            e * next(ti for ti in reversed(t) if ti)
            for b in range(1, m)
            for t in enumerate_family(FullFamily(2, b, n - 1))
            if sum(t) == b
        )
        assert grown == 117
        built = len(inserts)
        with pytest.warns(UserWarning):
            greedy_gv_code(n, 3, m, ext, seed=0)
        assert (built, len(inserts) - built, len(reduces)) == (11, grown + 88 + 2, 1188)

    def test_vontobel_set(self, monkeypatch):
        # the trace code's claim walk on the digit rows of its UDM set; the
        # field's irreducibility test makes 1 insert (GF(7)'s Q - I has no
        # column past the unit 1, and Q = (1) takes one), and the walk none
        calls = counting(monkeypatch)
        work = watching(monkeypatch)
        field = make_field(7, 1, 0)
        assert (len(calls["insert"]), len(calls["reduce"])) == (1, 0)
        assert vontobel_udms(8, 4, 5, field).verdict.ok
        assert (len(work["reads"]), len(work["appends"])) == (1274, 490)
        assert (len(calls["insert"]), len(calls["reduce"])) == (1, 0)
