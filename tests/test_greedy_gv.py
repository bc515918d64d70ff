"""Greedy GV on cached prefix echelons against the probe-code route.

``greedy_gv_code`` checks a candidate column only against the patterns
that erase part of it, on echelons of the accepted prefix built once per
column position.  ``reference_greedy_gv_code`` builds a probe code per
candidate and rechecks every maximal pattern of the full family.  Both
must emit the same code JSON byte for byte, the same warnings and the
same ``ConstructionError``, on the seeded path, the deterministic sweep
and when the search gives up.
"""

import json
import warnings

import pytest

from hierasure import ConstructionError, LinearCode, greedy_gv_code, serialize
from reference import reference_greedy_gv_code
from towers import tower

# near the existence threshold, so candidates are rejected: (10, 3, 3) over
# GF(2^2) rejects 175 over seeds 0-19 and (7, 4, 5) over GF(4^2) rejects 6;
# with m = 5 the e = 2 grid has patterns where only the digits of a second
# erased coordinate of the candidate are dependent (seed 18)
SEEDED = {"e1-GF(2^2)": (10, 3, 3, (2, 1, 2)), "e2-GF(4^2)": (7, 4, 5, (2, 2, 2))}


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


@pytest.mark.filterwarnings("ignore:field size")
def test_builds_one_code(monkeypatch):
    inits = []
    original = LinearCode.__post_init__

    def counted(self):
        inits.append(self)
        original(self)

    monkeypatch.setattr(LinearCode, "__post_init__", counted)
    code = greedy_gv_code(10, 3, 3, tower(2, 1, 2), seed=0)
    assert inits == [code]
