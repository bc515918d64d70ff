"""The packed prime-field kernel against the list-row kernel it replaced.

``modp`` packs a vector over Z/p into one int, entry k in lane k of B
bits, and normalizes every lane at once with one Barrett step.
``reference.ListEchelon`` is the kernel as it was before: rows are lists
of digits, reduced entry by entry.  Every comparison unpacks the packed
rows to (pivot, digits) and asks for the reference's rows exactly, over
p in {2, 3, 7, 11, 251, 65521}, with rank-deficient blocks, tagged
systems, and vectors that drive a lane to its largest value between
normalizations, A = (p-1) + width * (p-1)^2.

``modp.prefix_echelons`` also keeps one echelon for the whole walk: a
pattern keeps the rows of the stacked vectors it shares with the pattern
before, and a pattern that shares the earlier one's first dependency
fails without an insert.  ``reference_prefix_echelons`` eliminates every
pattern from scratch on a fresh list echelon.  Verdicts must agree on
every pattern, and an independent pattern's rows must be the reference's.
"""

import itertools
import random

import pytest

from hierasure import (
    FullFamily,
    ParameterError,
    UdmSet,
    is_correcting,
    maximal_patterns,
    modp,
    verify_udm,
)
from reference import (
    ListEchelon,
    reference_inverse,
    reference_is_correcting,
    reference_mat_vec,
    reference_prefix_echelons,
    reference_solve,
    reference_verify_udm,
)
from towers import trace_instance

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


def both(blocks, patterns, unit, p):
    patterns = list(patterns)
    packed, lay = packed_blocks(blocks, p)
    # the walk's echelon changes as it advances, so copy its rows at each yield
    got = [
        (t, None if ech is None else unpacked(ech))
        for t, ech in modp.prefix_echelons(packed, patterns, unit, lay)
    ]
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


@pytest.mark.parametrize("unit", [1, 2, 3])
@pytest.mark.parametrize("p", PRIMES)
def test_walk_matches_fresh_echelons(p, unit):
    rng = random.Random(f"{p}/{unit}")
    verdicts = set()
    for _ in range(12):
        n = rng.randrange(1, 4)
        height = rng.randrange(2, 3 * unit * n + 2)
        blocks = random_blocks(rng, p, unit, n, height)
        lex = list(itertools.product(range(4), repeat=n))  # all-zero first
        shuffled = lex[:]
        rng.shuffle(shuffled)
        repeats = [rng.choice(lex) for _ in range(2 * len(lex))]
        for order in (lex, shuffled, repeats, [(0,) * n]):
            for _, rows in both(blocks, order, unit, p):
                verdicts.add(rows is None)
    assert verdicts == {True, False}


def test_all_zero_pattern_and_empty_blocks():
    assert both([[[1, 0]], [[0, 1]]], [(0, 0)], 1, 3) == [((0, 0), [])]
    assert both([(), ()], [(0, 0), (1, 2)], 2, 5) == [((0, 0), []), ((1, 2), [])]


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
    # is dependent at stacked position 1
    BLOCKS = [[[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 1]]]

    def walk(self, patterns):
        packed, lay = packed_blocks(self.BLOCKS, 2)
        return modp.prefix_echelons(packed, patterns, 1, lay)

    def inserts(self, monkeypatch, patterns):
        """Per pattern, the Echelon.insert calls the walk made for it."""
        calls = []
        real = modp.Echelon.insert
        monkeypatch.setattr(modp.Echelon, "insert", lambda ech, v: calls.append(v) or real(ech, v))
        counts = []
        for t, ech in self.walk(patterns):
            counts.append((t, ech is not None, len(calls)))
            calls.clear()
        return counts

    def test_failed_prefix_kept_by_the_next_pattern_inserts_nothing(self, monkeypatch):
        got = self.inserts(monkeypatch, [(2, 0), (2, 1), (2, 2)])
        assert got == [((2, 0), False, 2), ((2, 1), False, 0), ((2, 2), False, 0)]
        both(self.BLOCKS, [(2, 0), (2, 1), (2, 2)], 1, 2)

    def test_pattern_that_leaves_the_failed_prefix_inserts_its_own(self, monkeypatch):
        # (1, 2) shares only the first vector with (2, 1): one row kept, two inserted
        got = self.inserts(monkeypatch, [(2, 1), (1, 2), (1, 1)])
        assert got == [((2, 1), False, 2), ((1, 2), True, 2), ((1, 1), True, 0)]
        both(self.BLOCKS, [(2, 1), (1, 2), (1, 1)], 1, 2)

    def test_shared_rows_are_kept_not_rebuilt(self, monkeypatch):
        # lex order: each pattern inserts only what follows its shared prefix
        got = self.inserts(monkeypatch, [(0, 2), (1, 0), (1, 1), (1, 2)])
        assert [k for *_, k in got] == [2, 1, 1, 1]

    def test_yielded_echelon_is_valid_until_the_walk_advances(self):
        walk = self.walk([(1, 2), (0, 1)])
        _, first = next(walk)
        kept = first.copy()
        _, second = next(walk)
        assert second is first and len(second.rows) == 1
        assert [piv for piv, _ in unpacked(kept)] == [0, 1, 2]


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
