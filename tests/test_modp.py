"""The packed prime-field kernel against the list-row kernel it replaced.

``modp`` packs a vector over Z/p into one int, entry k in lane k of B
bits, and normalizes every lane at once with one Barrett step.
``reference.ListEchelon`` is the kernel as it was before: rows are lists
of digits, reduced entry by entry.  Every comparison unpacks the packed
rows to (pivot, digits) and asks for the reference's rows exactly, over
p in {2, 3, 7, 11, 251, 65521}, with rank-deficient blocks, tagged
systems, and vectors that drive a lane to its largest value between
normalizations, A = (p-1) + width * (p-1)^2.

``modp.walk`` descends a pattern trie depth first on one echelon: a
level keeps the rows of the prefix above it and inserts only its block's
next vectors as t_i rises, and after a dependency the rest of the level
fails without an insert.  ``reference_prefix_echelons`` eliminates every
pattern from scratch on a fresh list echelon.  The walk must yield the
trie's leaves in lex order, verdicts must agree on every pattern, and an
independent pattern's rows must be the reference's.
"""

import itertools
import random

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
    reference_solve,
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
    ``patterns``) against fresh reference echelons; the walk's leaves must
    be ``patterns``."""
    packed, lay = packed_blocks(blocks, p)
    # the walk's echelon changes as it advances, so copy its rows at each yield
    got = [
        (t, None if ech is None else unpacked(ech))
        for t, ech in modp.walk(packed, *(trie or sorted_trie(patterns)), unit, lay)
    ]
    assert [t for t, _ in got] == list(patterns)
    want = [
        (t, None if ech is None else list(ech.rows))
        for t, ech in reference_prefix_echelons(blocks, patterns, unit, p)
    ]
    assert got == want
    return got


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


def test_all_zero_pattern_and_empty_blocks():
    assert both([[[1, 0]], [[0, 1]]], [(0, 0)], 1, 3) == [((0, 0), [])]
    assert both([(), ()], [(0, 0), (1, 2)], 2, 5) == [((0, 0), []), ((1, 2), [])]
    assert both([], [()], 1, 3) == [((), [])]  # a trie of no levels: its root is its leaf


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
    # first; its zero vector fails it and every other leaf is independent
    lay = modp.layout(3, 2)
    blocks = [[lay.pack([1, 2])]] * (LONG - 1) + [[0]]
    got = list(modp.walk(blocks, *family_trie(FullFamily(2, 1, LONG)), 1, lay))
    assert [t.index(1) for t, _ in got] == list(reversed(range(LONG)))
    assert [ech is None for _, ech in got] == [True] + [False] * (LONG - 1)
    assert all(len(ech.rows) == 1 for _, ech in got[1:])


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
    blocks = [[lay.pack([1, 2])]] * LONG
    got = [t for t, ech in modp.walk(blocks, *counted(fam), 1, lay) if ech is not None]
    assert len(got) == LONG and len(calls) <= 2 * LONG
    calls.clear()
    monkeypatch.setattr(patterns, "family_trie", counted)
    assert list(maximal_patterns(fam)) == got and len(calls) <= 2 * LONG


@pytest.mark.parametrize("p", PRIMES)
def test_tagged_systems_match_reference(p):
    # solve on rank-deficient systems, the right-hand side
    # in the column span or not; inverse on square ones, some singular
    rng = random.Random(f"tagged/{p}")
    statuses, singular = set(), set()
    for _ in range(60):
        height, ncols = rng.randrange(0, 7), rng.randrange(0, 7)
        cols = random_columns(rng, p, height, ncols)
        lay = modp.layout(p, height)
        packed = [lay.pack(c) for c in cols]
        if rng.randrange(2):
            rhs = reference_mat_vec(cols, [rng.randrange(p) for _ in cols], p) or [0] * height
        else:
            rhs = [rng.randrange(p) for _ in range(height)]
        out = modp.solve(packed, lay.pack(rhs), lay)
        assert (out.status, out.solution, out.free_count) == reference_solve(cols, rhs, p)
        statuses.add(out.status)

        cols = random_columns(rng, p, height, height)
        packed = [lay.pack(c) for c in cols]
        want = reference_inverse(cols, p)
        singular.add(want is None)
        if want is None:
            with pytest.raises(ParameterError):
                modp.inverse(packed, lay)
        else:
            assert [lay.digits(c) for c in modp.inverse(packed, lay)] == want
    assert statuses == {"unique", "ambiguous", "inconsistent"}
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

    def walk(self, patterns, blocks=BLOCKS):
        packed, lay = packed_blocks(blocks, 2)
        return modp.walk(packed, *sorted_trie(patterns), 1, lay)

    def inserts(self, monkeypatch, patterns, blocks=BLOCKS):
        """Per pattern, the Echelon.insert calls the walk made for it."""
        calls = []
        real = modp.Echelon.insert
        monkeypatch.setattr(modp.Echelon, "insert", lambda ech, v: calls.append(v) or real(ech, v))
        counts = []
        for t, ech in self.walk(patterns, blocks):
            counts.append((t, ech is not None, len(calls)))
            calls.clear()
        return counts

    def test_failed_prefix_kept_by_the_next_pattern_inserts_nothing(self, monkeypatch):
        got = self.inserts(monkeypatch, [(2, 0), (2, 1), (2, 2)])
        assert got == [((2, 0), False, 2), ((2, 1), False, 0), ((2, 2), False, 0)]
        both(self.BLOCKS, [(2, 0), (2, 1), (2, 2)], 1, 2)

    def test_failed_level_inserts_nothing_for_larger_values(self, monkeypatch):
        # t_0 = 2 fails, so t_0 = 3 and its subtree fail without an insert
        blocks = [[[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], [[0, 1, 0, 0], [0, 0, 1, 0]]]
        patterns = [(1, 2), (2, 0), (2, 1), (3, 0), (3, 2)]
        got = self.inserts(monkeypatch, patterns, blocks)
        assert got == [
            ((1, 2), True, 3), ((2, 0), False, 1), ((2, 1), False, 0), ((3, 0), False, 0), ((3, 2), False, 0)
        ]
        both(blocks, patterns, 1, 2)

    def test_pattern_that_leaves_the_failed_prefix_inserts_its_own(self, monkeypatch):
        # block 1's vectors are equal, so (0, 2) fails at block 1; (1, 0)
        # leaves that prefix, cuts block 1's row and inserts block 0's
        blocks = [[[1, 0], [1, 0]], [[0, 1], [0, 1]]]
        got = self.inserts(monkeypatch, [(0, 2), (1, 0), (1, 1)], blocks)
        assert got == [((0, 2), False, 2), ((1, 0), True, 1), ((1, 1), True, 1)]
        both(blocks, [(0, 2), (1, 0), (1, 1)], 1, 2)

    def test_shared_rows_are_kept_not_rebuilt(self, monkeypatch):
        # lex order: each pattern inserts only what follows its shared prefix
        got = self.inserts(monkeypatch, [(0, 2), (1, 0), (1, 1), (1, 2)])
        assert [k for *_, k in got] == [2, 1, 1, 1]

    def test_yielded_echelon_is_valid_until_the_walk_advances(self):
        walk = self.walk([(0, 1), (1, 2)])
        _, first = next(walk)
        kept = first.copy()
        _, second = next(walk)
        assert second is first and len(second.rows) == 3
        assert [piv for piv, _ in unpacked(kept)] == [1]


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
    """``Echelon.insert`` calls of whole checks, pinned: each stacked
    vector is inserted once per prefix that first needs it, and no insert
    follows a dependency at its level.  The field's construction is
    counted apart, for its irreducibility test."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"insert": [], "reduce": []}
        for name, calls in counts.items():
            real = getattr(modp.Echelon, name)
            monkeypatch.setattr(
                modp.Echelon, name, lambda ech, v, real=real, calls=calls: calls.append(1) or real(ech, v)
            )
        return counts

    @pytest.fixture
    def calls(self, counts):
        return counts["insert"]

    def test_trace_code_claim_and_refutation(self, calls):
        _, code = trace_instance()
        for i in range(code.n):
            code.block(i)
        calls.clear()
        assert is_correcting(code, code.claim).correcting
        assert len(calls) == 1274
        calls.clear()
        report = is_correcting(code, FullFamily(4, 6, 8))  # with its witness
        assert report.pattern == (0, 0, 1, 1, 1, 1, 1, 1) and len(calls) == 585

    def test_greedy_gv(self, counts):
        # the grown echelons take, for each pattern of total 1 .. m - 1 on
        # the first n - 1 columns, e times its last nonzero entry inserts:
        # the echelon of the pattern cut before that column, copied, takes
        # that column's first t*e vectors.  A candidate's trial inserts each
        # of its vectors but the last and only reduces the last: 88 trial
        # inserts and 1,188 trial reduces.  The other 2 inserts and 2
        # reduces invert the decoding basis
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
        assert (built, len(inserts) - built, len(reduces)) == (8, grown + 88 + 2, 1190)

    def test_vontobel_set(self, calls):
        field = make_field(7, 1, 0)
        built = len(calls)
        assert vontobel_udms(8, 4, 5, field).verdict.ok
        assert (built, len(calls) - built) == (2, 1274)
