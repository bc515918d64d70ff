"""``LinearCode``'s expansion and rank: every block equals the Element
products it replaces, the rank is the F_p rank of the expansion with one
column per symbol deciding, and each entry of H is expanded once."""

import random

import pytest

from hierasure import (
    b_symmetric_basis,
    code_from_rows,
    dual_basis,
    find_quadratic_root,
    is_correcting,
)
from hierasure import modp
from reference import reference_expand_column
from test_differential import TOWERS, random_code
import element_linalg
from towers import tower, trace_instance

# the differential towers (e = 1, 2, 3), then larger prime towers up to a
# 16-bit p
ORACLE_TOWERS = TOWERS + [(7, 1, 4), (11, 1, 8), (251, 1, 2), (65521, 1, 2)]


def _bases(ext):
    poly = ext.polynomial_basis()
    bases = {"polynomial": poly, "dual": dual_basis(poly)}
    if ext.alpha % 2 == 0:
        bases["b-symmetric"] = b_symmetric_basis(ext, find_quadratic_root(ext))
    return bases


def _digits(code, i):
    # symbol i's block, each column unpacked to its digits
    return tuple(tuple(code.layout.digits(x)) for x in code.block(i))


def test_trace_code_rank_expands_each_coordinate_once(monkeypatch):
    # verify-trace's code: r = 5, n = 8 over GF(7^4), rank 5.  The code
    # builds one product table, and each of the 40 entries of H is
    # expanded by one combination of its power digits with that table,
    # once across the rank and a full correctability check that reuses
    # the stored blocks.
    _, code = trace_instance()
    assert "table" not in vars(code)
    calls = []
    real_combination = modp.Layout.combination

    def combination(lay, coeffs, vectors):
        calls.append((vectors, list(coeffs)))
        return real_combination(lay, coeffs, vectors)

    monkeypatch.setattr(modp.Layout, "combination", combination)
    assert (code.rank, code.dim) == (5, 3)
    assert is_correcting(code, code.claim).correcting
    _, products = code.table
    calls = [coeffs for vectors, coeffs in calls if vectors is products]
    assert len(calls) == 40
    assert calls == [code.ext.digits(row[i].coeffs) for i in range(code.n) for row in code.H]


@pytest.mark.parametrize("p,e,alpha", ORACLE_TOWERS)
def test_blocks_match_element_products(p, e, alpha):
    # every block equals the Element products h * omega_j * x^d in power
    # digits, for codes of 1 to 3 rows sharing one basis (so each code
    # builds its own product table, for its own column width), with zero
    # entries
    ext = tower(p, e, alpha)
    rng = random.Random(f"{p}/{e}/{alpha}")
    for name, omega in _bases(ext).items():
        for r in (1, 2, 3):
            rows = [[ext.from_index(rng.randrange(ext.order)) for _ in range(3)] for _ in range(r)]
            rows[0][1] = ext.zero()
            code = code_from_rows(ext, rows, omega)
            assert "table" not in vars(code)  # built on first expansion, not with the code
            for i in range(code.n):
                column = [row[i] for row in code.H]
                want = reference_expand_column(omega, column)
                assert _digits(code, i) == want, (name, r, i)
                lay = code.layout
                if name == "polynomial":
                    # w_k is the power unit U_k: the table is the identity map
                    assert code.ext.multiplication_columns(column, lay) == list(map(lay.pack, want))
            # the table's lanes hold the code's n * alpha * e terms, in the code's bits
            tlay, products = code.table
            assert (tlay.width, tlay.terms, tlay.bits) == (r * alpha * e, 3 * alpha * e, lay.bits)
            assert len(products) == alpha * e
        assert vars(omega).keys() == {"ext", "elements", "_to_power", "_from_power", "_hash"}


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
                    code.block(i)
            want = element_linalg.rank([list(row) for row in code.H], ext)
            assert (code.rank, code.dim) == (want, n - want)
            deficient += want < min(n, r)
            for i in code._expansion:
                assert _digits(code, i) == reference_expand_column(code.omega, [row[i] for row in code.H])
    assert deficient > 0
