"""The prefix-shared stacked-prefix walk against a fresh echelon per pattern.

``modp.prefix_echelons`` keeps one echelon for the whole walk: a pattern
keeps the rows of the stacked vectors it shares with the pattern before,
and a pattern that shares the earlier one's first dependency fails without
an insert.  ``reference_prefix_echelons`` eliminates every pattern from
scratch.  Verdicts must agree on every pattern, and an independent
pattern's rows must be the reference's exactly, pivots and vectors.
"""

import itertools
import random

import pytest

from hierasure import (
    FullFamily,
    UdmSet,
    is_correcting,
    maximal_patterns,
    modp,
    verify_udm,
)
from reference import reference_is_correcting, reference_prefix_echelons, reference_verify_udm
from towers import trace_instance


def snapshot(walk):
    # the walk's echelon changes as it advances, so copy its rows at each yield
    return [(t, None if ech is None else list(ech.rows)) for t, ech in walk]


def both(blocks, patterns, unit, p):
    patterns = list(patterns)
    got = snapshot(modp.prefix_echelons(blocks, patterns, unit, p))
    assert got == snapshot(reference_prefix_echelons(blocks, patterns, unit, p))
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


@pytest.mark.parametrize("unit", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 7])
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


class TestSharing:
    # block 0's second vector repeats its first, so any pattern with t_0 = 2
    # is dependent at stacked position 1
    BLOCKS = [[[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 1]]]

    def inserts(self, monkeypatch, patterns):
        """Per pattern, the Echelon.insert calls the walk made for it."""
        calls = []
        real = modp.Echelon.insert
        monkeypatch.setattr(modp.Echelon, "insert", lambda ech, v: calls.append(v) or real(ech, v))
        counts = []
        for t, ech in modp.prefix_echelons(self.BLOCKS, patterns, 1, 2):
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
        walk = modp.prefix_echelons(self.BLOCKS, [(1, 2), (0, 1)], 1, 2)
        _, first = next(walk)
        kept = first.copy()
        _, second = next(walk)
        assert second is first and len(second.rows) == 1
        assert [piv for piv, _ in kept.rows] == [0, 1, 2]


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
