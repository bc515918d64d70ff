"""``LinearCode.rank``: the F_p rank of the expansion, one column per symbol
decides, and an independent symbol's block is built once."""

import random

import pytest

from hierasure import OrderedBasis, code_from_rows
from hierasure.codes import expand_column
from test_differential import TOWERS, random_code
import element_linalg
from towers import tower, trace_instance


def test_trace_code_rank_expands_each_coordinate_once(monkeypatch):
    # verify-trace's code: r = 5, n = 8 over GF(7^4), rank 5.  Five
    # independent blocks of 4 columns and three dependent digit-0 columns,
    # each 5 entries: 5 * 4 * 5 + 3 * 5 = 115 coordinate expansions.
    _, code = trace_instance()
    calls = []
    real = OrderedBasis.coordinate_digits
    monkeypatch.setattr(
        OrderedBasis, "coordinate_digits", lambda omega, x: calls.append(x) or real(omega, x)
    )
    assert (code.rank, code.dim) == (5, 3)
    assert len(calls) == 115


@pytest.mark.parametrize("expanded_first", [False, True], ids=["fresh", "expanded"])
def test_rank_and_dim_match_element_elimination(expanded_first):
    # every tower of the differential grid (e = 1, 2, 3), with zero columns,
    # dependent rows and repeated columns, so many H are rank-deficient
    rng = random.Random(5)
    deficient = 0
    for p, e, alpha in TOWERS:
        ext = tower(p, e, alpha)
        for k in range(6):
            n, r = rng.randrange(1, 5), rng.randrange(1, 4)
            code = random_code(ext, n, r, rng, zero_col=k % 2 == 1, dependent_row=k >= 2)
            if k == 5 and n >= 2:
                rows = [list(row[:-1]) + [row[0]] for row in code.H]
                code = code_from_rows(ext, rows, code.omega)
            if expanded_first:
                for i in range(code.n):
                    code.expansion(i)
            want = element_linalg.rank([list(row) for row in code.H], ext)
            assert (code.rank, code.dim) == (want, n - want)
            deficient += want < min(n, r)
            for i in code._expansion:
                assert code.expansion(i) == expand_column(code.omega, [row[i] for row in code.H])
    assert deficient > 0
