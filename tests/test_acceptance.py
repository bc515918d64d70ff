"""Acceptance gate: one test per criterion, exact verdicts throughout.

Each criterion is independent and rebuilds what it needs; a conftest hook
prints a PASS/FAIL line per criterion.  Field towers are cached across
criteria so each modulus search runs once.
"""

import math
import random
import warnings

import pytest

from hierasure import (
    BalancedFamily,
    BoundedFamily,
    FullFamily,
    PowerFamily,
    apply_erasure,
    b_symmetric_basis,
    balanced_code,
    check_vector_to_udms,
    code_from_rows,
    decode,
    dual_basis,
    enumerate_family,
    gabidulin_code,
    greedy_gv_code,
    gv_field_threshold,
    is_correcting,
    kernel_basis,
    length2_code,
    lucas_binom,
    maximal_patterns,
    pattern_correctable,
    power_code,
    quadratic_root_with_constant,
    square_trace_code,
    square_trace_udms,
    subfield_chain_basis,
    trace,
    trace_code,
    udms_to_check_vector,
    verify_udm,
    vontobel_udms,
)
from semantic import all_flat_codewords, semantic_correctable
from towers import field, tower


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


# -- criterion grids ---------------------------------------------------------

C1_TOWERS = [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 6),
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (2, 2, 1), (2, 2, 2),
    (5, 1, 1), (5, 1, 2), (7, 1, 2), (2, 3, 2), (13, 1, 1),
]


def _c1_codes():
    """Every construction instantiated across the q^alpha <= 64, n <= 3 grid."""
    for p, e, alpha in C1_TOWERS:
        ext = tower(p, e, alpha)
        q = ext.base.order
        if alpha % 2 == 0:
            yield length2_code(ext)
        if alpha == 2 and q >= 1:
            yield square_trace_code(ext)
        for n in (2, 3):
            if q < n - 1:
                continue
            for m in range(alpha, min(4, n * alpha) + 1):
                u = vontobel_udms(n, alpha, m, ext.base)
                yield trace_code(u, ext.polynomial_basis())
        if alpha & (alpha - 1) == 0:
            for n in (2, 3):
                if q >= n:
                    yield _quiet(balanced_code, n, ext)
                if alpha >= 2 and (q - 1) % (alpha // 2) == 0 and q >= (alpha // 2) * n + 1:
                    yield power_code(n, ext)
        for n in (2, 3):
            if n > alpha:
                continue
            for r in range(n):
                yield gabidulin_code(n, r, ext)
    for p in (5, 7):
        yield greedy_gv_code(3, 2, 1, tower(p, 1, 2), seed=0)


def test_c01_oracle_equivalence_small_grid():
    """Rank-route verdicts equal brute-force collision verdicts, per pattern."""
    count = 0
    for code in _c1_codes():
        count += 1
        flats = all_flat_codewords(code)
        alpha, e = code.ext.alpha, code.ext.base.e
        all_ok = True
        for t in enumerate_family(code.claim):
            fast = pattern_correctable(code, t)
            slow = semantic_correctable(flats, t, alpha, e)
            assert fast == slow, (code.provenance, t, fast, slow)
            all_ok = all_ok and fast
        assert is_correcting(code, code.claim).correcting == all_ok
        assert all_ok, ("construction failed its claim", code.provenance)
    assert count >= 100


def test_c02_length2_grid():
    for p, e, alpha in ((2, 1, 2), (2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 2)):
        code = length2_code(tower(p, e, alpha))
        assert code.dim == 1
        report = is_correcting(code, FullFamily(alpha, alpha, 2))
        assert report.correcting, (p, e, alpha, report.pattern)


def _c3_grid():
    for q_spec in ((2, 1), (3, 1), (5, 1)):
        f = field(*q_spec)
        for n in (2, 3, 4):
            if f.order < n - 1:
                continue
            for alpha in (1, 2):
                for m in range(alpha, min(4, n * alpha) + 1):
                    yield f, n, alpha, m


def test_c03_trace_codes_grid():
    checked = 0
    for f, n, alpha, m in _c3_grid():
        ext = tower(f.p, f.e, alpha)
        u = vontobel_udms(n, alpha, m, ext.base)
        code = trace_code(u, ext.polynomial_basis())
        assert code.dim >= n - m
        report = is_correcting(code, FullFamily(alpha, m, n))
        assert report.correcting, (f.p, n, alpha, m, report.pattern)
        checked += 1
    assert checked == 47


def test_c04_square_trace_corollary():
    for p in (2, 3):
        ext = tower(p, 1, 2)
        code = square_trace_code(ext)
        assert code.dim >= 1
        assert is_correcting(code, FullFamily(2, 2, 2)).correcting
        # the two shared-eigenvector relations, exactly
        root = quadratic_root_with_constant(ext, -ext.base.one())
        u = square_trace_udms(ext, root, 2)
        mu = b_symmetric_basis(ext, root)
        eigenvalues = udms_to_check_vector(u, mu)
        assert eigenvalues == (ext.one(), root.b)


def test_c05_balanced_with_product_form():
    ext = tower(5, 1, 4)
    code = balanced_code(4, ext)
    assert is_correcting(code, BalancedFamily(4, 4)).correcting
    chain = subfield_chain_basis(ext)
    assert code.omega == chain.omega
    for j, coeffs in enumerate(code.provenance["nu"]):
        node = ext.lift(ext.base.element(tuple(coeffs)))
        product = ext.one()
        for i, step in enumerate(chain.steps, start=1):
            product = product * (ext.one() + step * node ** (ext.alpha >> i))
        assert code.H[0][j] == product


def test_c06_power_codes():
    code5 = power_code(2, tower(5, 1, 4))
    assert is_correcting(code5, PowerFamily(4, 2)).correcting
    code13 = power_code(4, tower(13, 1, 4))
    report = is_correcting(code13, PowerFamily(4, 4))
    assert report.correcting, report.pattern
    assert pattern_correctable(code13, (2, 1, 1, 0))


def test_c07_gabidulin_exhaustive():
    for alpha in (3, 4):
        ext = tower(2, 1, alpha)
        for n in (2, 3):
            for r in range(n):
                code = gabidulin_code(n, r, ext)
                assert code.dim == n - r
                report = is_correcting(code, BoundedFamily(r, n), all_patterns=True)
                assert report.correcting, (alpha, n, r, report.pattern)


def test_c08_eigenvector_equivalence_exhaustive():
    ext = tower(2, 1, 2)
    omega = ext.polynomial_basis()
    fam = FullFamily(2, 2, 2)
    for i in range(ext.order):
        for j in range(ext.order):
            h = (ext.from_index(i), ext.from_index(j))
            code = code_from_rows(ext, [list(h)], omega, fam)
            correcting = is_correcting(code, fam).correcting
            assert verify_udm(check_vector_to_udms(h, omega)).ok == correcting


def test_c09_udm_construction_grid():
    convention = None
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1)):
        f = field(p, e)
        for n in range(1, 5):
            if f.order < n - 1:
                continue
            for alpha in (1, 2, 3):
                for m in range(alpha, 5):
                    u = vontobel_udms(n, alpha, m, f)
                    assert verify_udm(u).ok, (p, e, n, alpha, m)
                    assert u.meta["index_convention"] == "zero_based"
                    convention = u.meta["index_convention"]
    assert convention == "zero_based"


def _independent_threshold(n, m, alpha, r):
    # separate arithmetic route: factorial binomial, divide-out prime powers
    base = (m + 1) * math.factorial(m + n - 2) // (
        math.factorial(n - 2) * math.factorial(m)
    )
    exponent_den = alpha * (r - 1) - m
    q = 2
    while True:
        v = q
        p = 2
        while p * p <= v and v % p:
            p += 1
        smallest = p if p * p <= v else v
        while v % smallest == 0:
            v //= smallest
        if v == 1 and q**exponent_den > base:
            return base, exponent_den, q
        q += 1


def test_c10_gv_threshold_and_construction():
    th = gv_field_threshold(3, 1, 2, 2)
    assert (th.base, th.exponent_den, th.q_min) == (4, 1, 5)
    assert _independent_threshold(3, 1, 2, 2) == (4, 1, 5)
    code = greedy_gv_code(3, 2, 1, tower(5, 1, 2), seed=0)
    assert is_correcting(code, FullFamily(2, 1, 3)).correcting


def _c11_codes():
    for p, e, alpha in ((2, 1, 2), (2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 2)):
        yield length2_code(tower(p, e, alpha))
    for f, n, alpha, m in _c3_grid():
        ext = tower(f.p, f.e, alpha)
        u = vontobel_udms(n, alpha, m, ext.base)
        yield trace_code(u, ext.polynomial_basis())
    for p in (2, 3):
        yield square_trace_code(tower(p, 1, 2))
    yield balanced_code(4, tower(5, 1, 4))
    yield power_code(2, tower(5, 1, 4))
    yield power_code(4, tower(13, 1, 4))
    for alpha in (3, 4):
        for n in (2, 3):
            for r in range(n):
                yield gabidulin_code(n, r, tower(2, 1, alpha))
    yield greedy_gv_code(3, 2, 1, tower(5, 1, 2), seed=0)


def test_c11_decode_round_trips():
    rng = random.Random(2024)
    for code in _c11_codes():
        basis_words = kernel_basis(code)
        words = []
        for _ in range(100):
            word = [code.ext.zero()] * code.n
            for g in basis_words:
                x = code.ext.from_index(rng.randrange(code.ext.order))
                word = [w + x * gi for w, gi in zip(word, g)]
            words.append(tuple(word))
        for t in maximal_patterns(code.claim):
            for word in words:
                received = apply_erasure(word, t, code.omega)
                result = decode(code, received)
                assert result.status == "decoded", (code.provenance, t)
                assert result.codeword == word, (code.provenance, t)


def test_c12_field_core_suite():
    # dual-basis delta tables, exactly
    rng = random.Random(12)
    for p, e, alpha in ((2, 2, 2), (3, 1, 2), (2, 1, 4), (5, 1, 2)):
        ext = tower(p, e, alpha)
        bases = [ext.polynomial_basis()]
        from hierasure import OrderedBasis, is_basis

        while len(bases) < 3:
            cand = tuple(ext.from_index(rng.randrange(ext.order)) for _ in range(alpha))
            if is_basis(ext, cand):
                bases.append(OrderedBasis(ext, cand))
        for omega in bases:
            mu = dual_basis(omega)
            for i in range(alpha):
                for j in range(alpha):
                    value = trace(omega.elements[i] * mu.elements[j])
                    expected = ext.base.one() if i == j else ext.base.zero()
                    assert value == expected

    # trace linearity, exhaustive on F_16 over F_4 and F_9 over F_3
    for p, e, alpha in ((2, 2, 2), (3, 1, 2)):
        ext = tower(p, e, alpha)
        base = ext.base
        scalars = list(base.elements())
        elements = list(ext.elements())
        for a in elements:
            for b in elements:
                ta, tb = trace(a), trace(b)
                for g in scalars:
                    for d in scalars:
                        lhs = trace(ext.lift(g) * a + ext.lift(d) * b)
                        assert lhs == g * ta + d * tb

    # binomials against direct integer arithmetic
    for p in (2, 3, 5):
        for b in range(31):
            for a in range(b + 2):
                assert lucas_binom(b, a, p) == math.comb(b, a) % p
