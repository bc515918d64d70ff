import random

import pytest

from hierasure import (
    MissingEigenvectorError,
    OrderedBasis,
    ParameterError,
    UdmSet,
    check_vector_to_udms,
    dual_basis,
    find_quadratic_root,
    is_correcting,
    trace_check_matrix,
    udms_to_check_vector,
    verify_udm,
    vontobel_udms,
)
from hierasure import b_symmetric_basis, code_from_rows, square_trace_udms
from hierasure import FullFamily
import element_linalg
from towers import field, tower


def ints(mat):
    return [[e.spec.index_of(e) for e in row] for row in mat]


class TestVontobel:
    def test_n2_identity_anti_identity(self):
        f = field(2, 1)
        u = vontobel_udms(2, 2, 3, f)
        assert ints(u.matrices[0]) == [[1, 0, 0], [0, 1, 0]]
        assert ints(u.matrices[1]) == [[0, 0, 1], [0, 1, 0]]
        assert verify_udm(u).ok

    def test_q2_third_matrix_is_pure_binomials(self):
        # frozen from a hand evaluation of the 0-based binomial form with gamma=1
        u = vontobel_udms(3, 2, 2, field(2, 1))
        assert ints(u.matrices[2]) == [[1, 1], [0, 1]]
        assert u.meta["index_convention"] == "zero_based"
        assert verify_udm(u).ok

    def test_q3_alpha2_m3(self):
        u = vontobel_udms(3, 2, 3, field(3, 1))
        assert verify_udm(u).ok

    def test_precondition_grid(self):
        # q in {2,3,4,5}, n <= 4, alpha <= 3, alpha <= m <= 4, q >= n-1
        for p, e in ((2, 1), (3, 1), (2, 2), (5, 1)):
            f = field(p, e)
            for n in range(1, 5):
                if f.order < n - 1:
                    continue
                for alpha in range(1, 4):
                    for m in range(alpha, 5):
                        u = vontobel_udms(n, alpha, m, f)
                        assert verify_udm(u).ok

    def test_field_too_small(self):
        with pytest.raises(ParameterError):
            vontobel_udms(4, 2, 2, field(2, 1))

    def test_m_below_alpha(self):
        with pytest.raises(ParameterError):
            vontobel_udms(2, 3, 2, field(2, 1))


class TestVerify:
    def test_duplicate_identity_counterexample(self):
        f = field(2, 1)
        one, zero = f.one(), f.zero()
        ident = ((one, zero), (zero, one))
        u = UdmSet(f, 2, 2, (ident, ident))
        check = verify_udm(u)
        assert not check.ok
        assert check.counterexample == (1, 1)

    def test_counterexamples_are_genuine(self):
        f = field(3, 1)
        rng = random.Random(2)
        found = 0
        while found < 5:
            mats = tuple(
                tuple(
                    tuple(f.from_index(rng.randrange(3)) for _ in range(2))
                    for _ in range(2)
                )
                for _ in range(2)
            )
            u = UdmSet(f, 2, 2, mats)
            check = verify_udm(u)
            if check.ok:
                continue
            found += 1
            t = check.counterexample
            stacked = []
            for mat, ti in zip(u.matrices, t):
                stacked.extend(list(row) for row in mat[:ti])
            assert element_linalg.rank(stacked, f) < sum(t)

    def test_lower_triangular_closure(self):
        # left-multiplying each matrix by an invertible lower-triangular factor
        # preserves universal decodability
        rng = random.Random(7)
        for p, n, alpha, m in ((2, 3, 2, 2), (3, 3, 2, 3), (5, 4, 3, 3)):
            f = field(p, 1)
            u = vontobel_udms(n, alpha, m, f)
            new_mats = []
            for mat in u.matrices:
                lower = _random_lower_triangular(f, alpha, rng)
                new_mats.append(
                    tuple(tuple(r) for r in element_linalg.mat_mul(lower, [list(r) for r in mat], f))
                )
            assert verify_udm(UdmSet(f, alpha, m, tuple(new_mats))).ok


def _random_lower_triangular(f, size, rng):
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if j > i:
                row.append(f.zero())
            elif j == i:
                row.append(f.from_index(rng.randrange(1, f.order)))
            else:
                row.append(f.from_index(rng.randrange(f.order)))
        rows.append(row)
    return rows


class TestDigitRows:
    @pytest.mark.parametrize("p,e", [(2, 3), (3, 2)])
    def test_digit_rows_match_element_products(self, p, e):
        # over GF(8) and GF(9) each F_q row v becomes the e prime-field rows
        # x^d * v, the field's power multiples, equal to Element products
        from hierasure.udm import _digit_rows

        f = field(p, e)
        rng = random.Random(p * e)
        units = [f.from_index(p**d) for d in range(e)]
        mats = [
            [[f.from_index(rng.randrange(f.order)) for _ in range(4)] for _ in range(2)]
            for _ in range(3)
        ]
        mats[0][1] = [f.from_index(f.order - 1)] * 4  # every digit at p - 1
        lay, rows = _digit_rows(UdmSet(f, 2, 4, mats))
        assert len(rows) == 3
        for mat, packed in zip(mats, rows):
            want = [[c for entry in row for c in (x * entry).coeffs] for row in mat for x in units]
            assert [lay.digits(v) for v in packed] == want


class TestEigenvectorBridge:
    def test_identity_has_eigenvalue_one(self):
        ext = tower(2, 1, 2)
        omega = ext.polynomial_basis()
        u = vontobel_udms(1, 2, 2, ext.base)
        h = udms_to_check_vector(u, omega)
        assert h == (ext.one(),)

    def test_twisted_pair_gives_one_and_b(self):
        ext = tower(2, 1, 2)
        root = find_quadratic_root(ext)
        u = square_trace_udms(ext, root, 2)
        mu = b_symmetric_basis(ext, root)
        h = udms_to_check_vector(u, mu)
        assert h == (ext.one(), root.b)

    def test_rejection_names_the_matrix(self):
        ext = tower(2, 1, 2)
        base = ext.base
        omega = ext.polynomial_basis()
        one, zero = base.one(), base.zero()
        # maps omega_1 -> omega_2, omega_2 -> 0: no eigenvector relation
        bad = ((zero, one), (zero, zero))
        ident = ((one, zero), (zero, one))
        u = UdmSet(base, 2, 2, (ident, bad))
        with pytest.raises(MissingEigenvectorError) as exc:
            udms_to_check_vector(u, omega)
        assert exc.value.index == 1

    def test_round_trip(self):
        ext = tower(2, 1, 2)
        omega = ext.polynomial_basis()
        rng = random.Random(4)
        for _ in range(8):
            h = tuple(ext.from_index(rng.randrange(1, ext.order)) for _ in range(2))
            u = check_vector_to_udms(h, omega)
            assert udms_to_check_vector(u, omega) == h
        # over non-prime bases too, against the polynomial basis and its dual
        for p, e, alpha in ((3, 2, 2), (2, 2, 3), (2, 3, 2)):
            ext = tower(p, e, alpha)
            poly = ext.polynomial_basis()
            for omega in (poly, dual_basis(poly)):
                for _ in range(4):
                    h = tuple(ext.from_index(rng.randrange(1, ext.order)) for _ in range(3))
                    u = check_vector_to_udms(h, omega)
                    assert udms_to_check_vector(u, omega) == h

    def test_unit_check_vector_gives_identities(self):
        ext = tower(3, 1, 2)
        omega = ext.polynomial_basis()
        u = check_vector_to_udms((ext.one(), ext.one()), omega)
        ident = ints(vontobel_udms(1, 2, 2, ext.base).matrices[0])
        for mat in u.matrices:
            assert ints(mat) == ident

    @pytest.mark.parametrize("p", [2, 3])
    def test_equivalence_both_directions_exhaustive(self, p):
        # alpha=2, n=2: correctable kernel <=> matrices universally decodable
        ext = tower(p, 1, 2)
        omega = ext.polynomial_basis()
        fam = FullFamily(2, 2, 2)
        for i in range(ext.order):
            for j in range(ext.order):
                h = (ext.from_index(i), ext.from_index(j))
                code = code_from_rows(ext, [list(h)], omega, fam)
                correcting = is_correcting(code, fam).correcting
                u = check_vector_to_udms(h, omega)
                assert verify_udm(u).ok == correcting


@pytest.mark.parametrize("p, e, alpha, n, m", [(2, 2, 2, 4, 3), (3, 2, 2, 3, 3), (2, 2, 3, 3, 4)])
def test_trace_check_matrix_is_the_defining_sum(p, e, alpha, n, m):
    # entry (l, i) = sum_r A_i[r][l] * mu_r, over non-prime bases and for
    # the polynomial basis and its dual
    ext = tower(p, e, alpha)
    u = vontobel_udms(n, alpha, m, ext.base)
    poly = ext.polynomial_basis()
    for mu in (poly, dual_basis(poly)):
        want = []
        for ell in range(m):
            row = []
            for mat in u.matrices:
                acc = ext.zero()
                for r in range(alpha):
                    acc = acc + ext.lift(mat[r][ell]) * mu.elements[r]
                row.append(acc)
            want.append(row)
        assert trace_check_matrix(u, mu) == want


class TestUdmCodeEquivalence:
    """verify_udm and is_correcting ask the same stacked-prefix question.

    Matrix i of the UDM set has row j equal to the coordinates over omega of
    H[:, i] * omega_j, stacked over H's rows, so its first t_i rows span the
    same space as the expansion columns a pattern erases in symbol i.  Both
    checks must agree on the verdict and on the first failing pattern.
    """

    @staticmethod
    def _udms_of(code):
        omega, ext = code.omega, code.ext
        mats = [
            [[c for row in code.H for c in omega.coordinates(row[i] * w)] for w in omega.elements]
            for i in range(code.n)
        ]
        return UdmSet(ext.base, ext.alpha, code.r * ext.alpha, mats)

    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2)])
    def test_random_codes(self, p, e, alpha):
        ext = tower(p, e, alpha)
        omega = ext.polynomial_basis()
        rng = random.Random(p * 100 + e * 10 + alpha)
        outcomes = []
        for _ in range(40):
            n = rng.randint(2, 4)
            r = rng.randint(1, 2)
            # about a third of the entries are zero
            entry = lambda: ext.from_index(rng.randrange(ext.order)) if rng.random() < 2 / 3 else ext.zero()
            rows = [[entry() for _ in range(n)] for _ in range(r)]
            code = code_from_rows(ext, rows, omega)
            report = is_correcting(code, FullFamily(alpha, min(r * alpha, n * alpha), n))
            check = verify_udm(self._udms_of(code))
            assert (check.ok, check.counterexample) == (report.correcting, report.pattern)
            outcomes.append(check.ok)
        # both verdicts occur, so the counterexample path runs too
        assert True in outcomes and False in outcomes
