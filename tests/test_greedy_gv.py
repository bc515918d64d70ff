"""Greedy GV on grown prefix echelons against the probe-code route.

``greedy_gv_code`` checks a candidate column only against the patterns
that erase part of it, on the echelons of every pattern of each total
below m on the accepted prefix.  ``_grow`` extends those echelons by
each accepted column instead of rebuilding them per position, and a
check that rejects a candidate moves to the front.
``reference_greedy_gv_code`` builds a probe code per candidate and
rechecks every maximal pattern of the full family.  Both must emit the
same code JSON byte for byte, the same warnings and the same
``ConstructionError``, on the seeded path, the deterministic sweep (which
resumes, position after position, where it last stopped) and when the
search gives up.  The grown echelons must span, prefix by
prefix, what ``reference_prefix_echelons`` builds afresh for the same
patterns.
"""

import json
import random
import warnings

import pytest

from hierasure import (
    ConstructionError,
    FullFamily,
    LinearCode,
    constructions,
    greedy_gv_code,
    maximal_patterns,
    modp,
    serialize,
)
from hierasure.codes import expansion_table, pack_column
from hierasure.constructions import _extends, _grow
from reference import reference_greedy_gv_code, reference_prefix_echelons
from towers import tower

PRIMES = [2, 3, 7, 11, 251, 65521]

# near the existence threshold, so candidates are rejected: (10, 3, 3) over
# GF(2^2) rejects 175 over seeds 0-19 and (7, 4, 5) over GF(4^2) rejects 6;
# with m = 5 the e = 2 grid has patterns where only the digits of a second
# erased coordinate of the candidate are dependent (seed 18); (8, 3, 5)
# over GF(2^3) has m > alpha, so a grown pattern erases all alpha
# coordinates of a column and totals pass alpha (122 rejections over seeds 0-4)
SEEDED = {
    "e1-GF(2^2)": (10, 3, 3, (2, 1, 2)),
    "e2-GF(4^2)": (7, 4, 5, (2, 2, 2)),
    "a3-GF(2^3)": (8, 3, 5, (2, 1, 3)),
}


def _outcome(build, n, r, m, tw, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = build(n, r, m, tower(*tw), **kwargs)
            out = json.dumps(serialize.code_to_json(code), indent=2, sort_keys=True)
        except ConstructionError as exc:
            out = f"ConstructionError: {exc}"
    return out, [str(w.message) for w in caught]


def assert_same(n, r, m, tw, **kwargs) -> str:
    got = _outcome(greedy_gv_code, n, r, m, tw, **kwargs)
    assert got == _outcome(reference_greedy_gv_code, n, r, m, tw, **kwargs)
    return got[0]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("instance", SEEDED.values(), ids=SEEDED.keys())
def test_seeded_codes_match_reference(instance, seed):
    assert not assert_same(*instance, seed=seed).startswith("ConstructionError")


def test_sweep_after_empty_budget_matches_reference():
    # GF(2^2), r = 3: 64 columns, so the deterministic sweep runs (120 rejections)
    assert not assert_same(10, 3, 3, (2, 1, 2), budget=0).startswith("ConstructionError")


def test_sweep_resumes_where_the_last_one_stopped(monkeypatch):
    # a column rejected at one position is rejected at every later one, so
    # each sweep starts at the index the last one accepted: 40 candidates
    # are packed, against 127 when every sweep starts at index 0, plus one
    # pack per identity column; the code is the reference's
    packed = []
    pack = constructions.pack_column
    monkeypatch.setattr(constructions, "pack_column", lambda *a, **k: packed.append(1) or pack(*a, **k))
    with pytest.warns(UserWarning, match="field size"):
        greedy_gv_code(10, 3, 3, tower(2, 1, 2), budget=0)
    assert len(packed) == 3 + 40
    monkeypatch.undo()
    assert not assert_same(10, 3, 3, (2, 1, 2), budget=0).startswith("ConstructionError")


@pytest.mark.parametrize("seed", range(3))
def test_budget_then_sweep_matches_reference(seed):
    # a budget of 2 runs dry on some columns only, so RNG draws and sweeps interleave
    assert_same(10, 3, 3, (2, 1, 2), seed=seed, budget=2)


@pytest.mark.parametrize("budget", [0, 3])
def test_exhausted_sweep_matches_reference(budget):
    # r = 4, m = 2 over GF(2) needs distinct nonzero columns of F_2^4: at most 15
    out = assert_same(16, 4, 2, (2, 1, 1), budget=budget)
    assert out == (
        "ConstructionError: no eligible column found for position 15 "
        f"(have 15 good columns; budget {budget})"
    )


def test_exhausted_budget_without_sweep_matches_reference():
    # 28,561^2 columns is past the sweep limit
    assert assert_same(3, 2, 1, (13, 1, 4), budget=0).startswith("ConstructionError: no eligible column")


def _same_span(a: modp.Echelon, b: modp.Echelon) -> bool:
    pivots = a.layout.pivots
    return len(a.rows) == len(b.rows) and not any(
        x.reduce(row) & pivots for x, y in ((a, b), (b, a)) for _, row in y.rows
    )


@pytest.mark.filterwarnings("ignore:field size")
@pytest.mark.parametrize("instance", SEEDED.values(), ids=SEEDED.keys())
def test_grown_echelons_match_walk(instance):
    # after each prefix of a GV code's columns, by_total[b] spans, pattern
    # for pattern, the echelons of the maximal patterns of
    # FullFamily(alpha, b, L), the leaves the walk checks, each eliminated
    # afresh by ``reference_prefix_echelons``: each of the grown echelons
    # is matched to a distinct fresh echelon of the same row space
    n, r, m, tw = instance
    ext = tower(*tw)
    code = greedy_gv_code(n, r, m, ext, seed=0)
    alpha, e = ext.alpha, ext.base.e
    lay = modp.layout(ext.base.p, r * alpha * e)
    table = expansion_table(code.omega, lay)
    columns = [pack_column(table, col) for col in zip(*code.H)]
    digits = [[lay.digits(v) for v in block] for block in columns]
    by_total = [[modp.Echelon(lay)]] + [[] for _ in range(m - 1)]
    for length in range(1, n):
        _grow(by_total, columns[length - 1], alpha, e)
        if length < r:
            continue
        for b in range(1, m):
            fresh = []
            maxima = maximal_patterns(FullFamily(alpha, b, length))
            for t, ref in reference_prefix_echelons(digits[:length], maxima, e, ext.base.p):
                assert ref is not None, t  # the code is m-good
                ech = modp.Echelon(lay)
                for _, row in ref.rows:
                    ech.insert(lay.pack(row))
                fresh.append(ech)
            assert len(by_total[b]) == len(fresh), (length, b)
            for ech in by_total[b]:
                twin = next(k for k, w in enumerate(fresh) if _same_span(ech, w))
                del fresh[twin]


def test_grow_rejects_a_dependent_prefix():
    # a repeated column makes the pattern erasing one coordinate of each dependent
    ext = tower(2, 1, 2)
    lay = modp.layout(2, 2 * 2)
    column = pack_column(expansion_table(ext.polynomial_basis(), lay), [ext.one(), ext.one()])
    by_total = [[modp.Echelon(lay)], [], []]
    _grow(by_total, column, 2, 1)
    assert [len(echs) for echs in by_total] == [1, 1, 1]
    with pytest.raises(ConstructionError, match="construction bug"):
        _grow(by_total, column, 2, 1)


@pytest.mark.filterwarnings("ignore:field size")
def test_builds_one_code(monkeypatch):
    inits = []
    original = LinearCode.__post_init__

    def counted(self):
        inits.append(self)
        original(self)

    monkeypatch.setattr(LinearCode, "__post_init__", counted)
    tables = []
    table = constructions.expansion_table
    monkeypatch.setattr(constructions, "expansion_table", lambda *a: tables.append(a) or table(*a))
    code = greedy_gv_code(10, 3, 3, tower(2, 1, 2), seed=0)
    assert inits == [code]
    assert len(tables) == 1  # one product table per call, read by every candidate


@pytest.mark.parametrize("p", PRIMES)
def test_trial_matches_inserting_every_vector(p):
    # a trial inserts all but its last vector and reduces the last; the
    # reference inserts every vector into a copy.  Vectors are random or a
    # combination of the basis's inputs and the trial's earlier vectors,
    # so dependent trials come at every position; vectors past the k the
    # trial reads are random and must not count
    rng = random.Random(f"trial/{p}")
    verdicts, sizes = set(), set()
    for _ in range(30):
        width = rng.randrange(1, 7)
        lay = modp.layout(p, width)
        ech, inputs = modp.Echelon(lay), []
        for _ in range(rng.randrange(width + 1)):
            inputs.append(lay.pack([rng.randrange(p) for _ in range(width)]))
            ech.insert(inputs[-1])
        for _ in range(6):
            k = rng.randrange(1, 4)
            vectors = []
            for _ in range(k):
                if rng.randrange(3):
                    vectors.append(lay.pack([rng.randrange(p) for _ in range(width)]))
                else:
                    span = inputs + vectors
                    vectors.append(lay.combination([rng.randrange(p) for _ in span], span))
            vectors += [lay.pack([rng.randrange(p) for _ in range(width)]) for _ in range(rng.randrange(3))]
            rows, twin = list(ech.rows), ech.copy()
            want = all(twin.insert(v) is None for v in vectors[:k])
            assert _extends(ech, vectors, k) == want, (width, k)
            assert ech.rows == rows
            verdicts.add(want)
            sizes.add(k)
    assert verdicts == {True, False} and sizes == {1, 2, 3}
