import itertools
import math
import random

import pytest

from hierasure import (
    ConstructionError,
    Element,
    ExtSpec,
    FieldSpec,
    InvalidBasisError,
    OrderedBasis,
    ParameterError,
    dual_basis,
    find_quadratic_root,
    is_basis,
    lucas_binom,
    make_extension,
    make_field,
    make_tower,
    quadratic_root_with_constant,
    subfield_basis,
    trace,
)
from hierasure import fields, modp
from reference import (
    _mul,
    _rem,
    reference_is_irreducible,
    reference_quadratic_root,
    reference_subfield_members,
)
from towers import FIELDS, TOWERS, field, tower


def w_elem(ext):
    # the generator y of the extension, handy in F_4-style cases: digit e is 1
    return ext.from_index(ext.base.order)


def coefficients(raw, e):
    # an extension raw as its alpha base raws, the polynomial over the base
    return [tuple(raw[k : k + e]) for k in range(0, len(raw), e)]


class TestMakeField:
    def test_prime_field_modulus_is_x(self):
        for seed in (0, 1, 99):
            f = make_field(2, 1, seed)
            assert f.modulus == (0, 1)

    def test_gf4_modulus_unique(self):
        # only one monic irreducible quadratic exists over GF(2)
        for seed in range(5):
            f = make_field(2, 2, seed)
            assert f.modulus == (1, 1, 1)

    def test_gf9_modulus_has_no_root(self):
        f = make_field(3, 2, seed=7)
        a0, a1, a2 = f.modulus
        assert a2 == 1
        for x in range(3):
            assert (a0 + a1 * x + a2 * x * x) % 3 != 0

    def test_not_prime_rejected(self):
        with pytest.raises(ParameterError):
            make_field(4, 1)
        with pytest.raises(ParameterError):
            make_field(6, 2)

    def test_seed_determinism(self):
        assert make_field(5, 3, seed=42).modulus == make_field(5, 3, seed=42).modulus

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ParameterError):
            FieldSpec(2, 2, (1, 0, 1))  # (x+1)^2

    # (p, e, alpha, seed, base modulus, extension modulus), each modulus
    # written as one integer with coefficient k (by its index) at digit k.
    # Degree 1 at either level, the shuffled search (order**degree <= 2**16)
    # and the sampled one (above it) at both levels.
    PINNED_MODULI = [
        (2, 1, 1, 0, 2, 2),
        (3, 1, 2, 1, 3, 14),
        (5, 1, 8, 0, 5, 605893),
        (5, 1, 8, 3, 5, 763996),
        (11, 1, 8, 2, 11, 307732237),
        (3, 2, 3, 0, 14, 1214),
        (3, 2, 3, 2, 10, 1023),
        (2, 4, 4, 1, 31, 82717),
        (7, 2, 2, 3, 97, 3629),
        (5, 4, 2, 1, 856, 754512),
        (2, 17, 1, 0, 193191, 131072),
        (3, 11, 1, 2, 292646, 177147),
        (2, 16, 2, 0, 75515, 6171375442),
        (2, 17, 2, 1, 240925, 21231502640),
    ]

    @pytest.mark.parametrize("p,e,alpha,seed,base_mod,ext_mod", PINNED_MODULI)
    def test_seeded_moduli_are_pinned(self, p, e, alpha, seed, base_mod, ext_mod):
        # artifacts record moduli, but a tower rebuilt from (p, e, alpha, seed)
        # must come out the same for replayed runs to match
        ext = make_tower(p, e, alpha, seed)
        base = ext.base
        assert sum(c * p**k for k, c in enumerate(base.modulus)) == base_mod
        assert sum(base.rindex(c) * base.order**k for k, c in enumerate(ext.modulus)) == ext_mod
        assert make_field(p, e, seed) == base

    @pytest.mark.parametrize("key", sorted(FIELDS) + sorted(TOWERS), ids=str)
    def test_seeded_search_finds_the_pinned_modulus(self, key):
        # the shared test fields are set up on pinned moduli, which the
        # seeded search must still find: (p, e, seed) or (p, e, alpha, seed)
        if len(key) == 3:
            assert make_field(*key) == field(*key)
        else:
            p, e, alpha, seed = key
            assert make_extension(make_field(p, e, seed), alpha, seed) == tower(*key)


class TestArithmetic:
    def test_gf4_generator_square(self):
        ext = tower(2, 1, 2)
        w = w_elem(ext)
        assert (w * w).coeffs == (1, 1)

    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)])
    def test_identities_and_inverses_exhaustive(self, p, e, alpha):
        ext = tower(p, e, alpha)
        zero, one = ext.zero(), ext.one()
        for a in ext.elements():
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            if a:
                assert a * a.inverse() == one

    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 2), (3, 1, 2), (2, 2, 1), (5, 1, 1), (3, 1, 3)])
    def test_axioms_exhaustive_small(self, p, e, alpha):
        ext = tower(p, e, alpha)
        els = list(ext.elements())
        for a, b in itertools.product(els, repeat=2):
            assert a + b == b + a
            assert a * b == b * a
        for a, b, c in itertools.product(els, repeat=3):
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 6), (3, 1, 4), (2, 2, 4), (13, 1, 2)])
    def test_axioms_sampled_larger(self, p, e, alpha):
        ext = tower(p, e, alpha)
        rng = random.Random(11)
        els = [ext.from_index(rng.randrange(ext.order)) for _ in range(12)]
        for a in els:
            if a:
                assert a * a.inverse() == ext.one()
        for a, b, c in itertools.product(els[:6], repeat=3):
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    @staticmethod
    def _operands(field, seed):
        # random pairs, then the raws whose digits are all p - 1 (the
        # largest lanes a product makes) against themselves and a random one
        rng = random.Random(seed)
        pairs = [tuple(field.from_index(rng.randrange(field.order)).coeffs for _ in range(2)) for _ in range(40)]
        top = field.from_index(field.order - 1).coeffs
        return pairs + [(top, top), (top, pairs[0][0]), (pairs[0][1], top)]

    @classmethod
    def _check_product_against_polynomials(cls, ext, seed):
        # the product of raws equals the reference's polynomial product
        # over the base, reduced by the extension modulus, its coefficients
        # flattened
        base, alpha, e = ext.base, ext.alpha, ext.base.e
        for a, b in cls._operands(ext, seed):
            want = _rem(_mul(coefficients(a, e), coefficients(b, e), base), list(ext.modulus), base)
            want = tuple(want) + (base.rzero,) * (alpha - len(want))
            assert ext.rmul(a, b) == tuple(d for c in want for d in c)

    # alpha = 1, p = 2 at every alpha from 2 to 8, and p = 65521 at alpha =
    # 8, the widest lanes of any product here
    PRIME_BASE = [(2, 1), (5, 1), (65521, 1), (7, 4), (11, 8), (65521, 2), (65521, 8)] + [(2, a) for a in range(2, 9)]

    @pytest.mark.parametrize("p,alpha", PRIME_BASE)
    def test_prime_base_product_matches_generic_polynomials(self, p, alpha):
        # over a prime base the product is one packed multiply
        ext = tower(p, 1, alpha)
        assert ext._mulmod is not None
        self._check_product_against_polynomials(ext, p * alpha)

    @pytest.mark.parametrize(
        "p,e,alpha",
        [(3, 2, 4), (2, 2, 3), (2, 3, 2), (3, 2, 8), (2, 2, 1), (3, 2, 1), (65521, 2, 8)]
        + [(2, 2, a) for a in range(2, 9) if a != 3],
    )
    def test_nonprime_base_product_matches_generic_polynomials(self, p, e, alpha):
        # over a non-prime base the product is one packed combination of
        # a's digits with the power multiples of b
        ext = tower(p, e, alpha)
        assert ext._mulmod is None
        self._check_product_against_polynomials(ext, p * e * alpha)

    @pytest.mark.parametrize("p,e", sorted({(p, e) for p, e, _ in FIELDS if e > 1}))
    def test_base_field_product_matches_generic_polynomials(self, p, e):
        # F_p[x]/(f) with e > 1 multiplies by the same packed product; the
        # reference multiplies polynomials over GF(p), whose raws are 1-tuples
        f, prime = field(p, e), field(p, 1)
        assert f._mulmod is not None
        modulus = [(c,) for c in f.modulus]
        for a, b in self._operands(f, p * e):
            want = _rem(_mul(list(zip(a)), list(zip(b)), prime), modulus, prime)
            want = tuple(c for (c,) in want) + (0,) * (e - len(want))
            assert f.rmul(a, b) == want

    @pytest.mark.parametrize("p,alpha", [(2, 1), (2, 8), (11, 8), (65521, 8)])
    def test_prime_base_sums_match_base_operations(self, p, alpha):
        # the raw sums of an extension, digit by digit, equal the base
        # field's operations coefficient by coefficient
        ext = tower(p, 1, alpha)
        base = ext.base

        def each(op, *raws):
            return tuple(d for cs in zip(*(coefficients(r, 1) for r in raws)) for d in op(*cs))

        for a, b in self._operands(ext, p + alpha):
            assert ext.radd(a, b) == each(base.radd, a, b)
            assert ext.rsub(a, b) == each(base.rsub, a, b)
            assert ext.rneg(a) == each(base.rneg, a)

    def test_prime_base_rcheck_matches_base_checks(self):
        # the extension checks its digits as the base checks each
        # coefficient, and refuses the nested spelling
        ext = tower(5, 1, 2)
        base = ext.base
        good = (1, 4)
        raws = [good, (1, 5), (1, -1), (1, True), (1, 1.0), (1, [4]), (1, (4,)),
                (1, 4, 0), (1,), [1, 4], ((1,), (4,)), ((1,), 4), ()]
        for raw in raws:
            generic = isinstance(raw, tuple) and len(raw) == 2 and all(base.rcheck((c,)) for c in raw)
            assert ext.rcheck(raw) == generic, raw
        assert ext.rcheck(good) and not ext.rcheck(raws[1])

    def test_inverse_of_zero(self):
        ext = tower(2, 1, 2)
        with pytest.raises(ZeroDivisionError):
            ext.zero().inverse()

    def test_spec_mismatch(self):
        a = tower(2, 1, 2).one()
        b = tower(3, 1, 2).one()
        with pytest.raises(ParameterError):
            a + b

    @pytest.mark.parametrize("p,e,alpha", [(5, 1, 2), (2, 2, 2), (3, 2, 2), (11, 1, 8)])
    def test_pow_matches_repeated_multiplication(self, p, e, alpha):
        ext = tower(p, e, alpha)
        w = w_elem(ext)
        acc = ext.one()
        for k in range(10):
            assert w**k == acc
            acc = acc * w
        assert w**-1 == w.inverse()
        assert w**-3 == (w.inverse()) ** 3
        assert w ** (ext.order - 1) == ext.one()

    def test_powers_of_zero(self):
        ext = tower(2, 2, 2)
        zero = ext.zero()
        assert zero**0 == ext.one()
        assert zero**3 == zero
        with pytest.raises(ZeroDivisionError):
            zero**-1


class TestTrace:
    def test_gf4_trace_of_generator(self):
        ext = tower(2, 1, 2)
        assert trace(w_elem(ext)) == ext.base.one()

    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 4)])
    def test_embedded_constant_traces_to_alpha_times(self, p, e, alpha):
        ext = tower(p, e, alpha)
        base = ext.base
        for c in base.elements():
            expected = base.zero()
            for _ in range(alpha):
                expected = expected + c
            assert trace(ext.lift(c)) == expected
        assert trace(ext.zero()) == base.zero()

    def test_trace_lands_in_base_everywhere(self):
        ext = tower(2, 1, 4)
        for x in ext.elements():
            t = trace(x)  # raises internally if the value leaves the base
            assert t.spec == ext.base

    def test_matches_matrix_trace_of_multiplication_map(self):
        # independent characterization: the field trace equals the matrix
        # trace of the multiply-by-x map in any fixed coordinate system
        for p, e, alpha in ((2, 1, 3), (3, 1, 2), (2, 2, 2)):
            ext = tower(p, e, alpha)
            base = ext.base
            pb = ext.polynomial_basis()
            for x in ext.elements():
                diag = base.zero()
                for j, basis_el in enumerate(pb.elements):
                    col = pb.coordinates(x * basis_el)
                    diag = diag + col[j]
                assert trace(x) == diag

    def test_linearity_sampled(self):
        ext = tower(3, 1, 3)
        rng = random.Random(5)
        for _ in range(60):
            a = ext.from_index(rng.randrange(ext.order))
            b = ext.from_index(rng.randrange(ext.order))
            g = ext.base.from_index(rng.randrange(ext.base.order))
            d = ext.base.from_index(rng.randrange(ext.base.order))
            lhs = trace(ext.lift(g) * a + ext.lift(d) * b)
            rhs = g * trace(a) + d * trace(b)
            assert lhs == rhs


FROBENIUS_TOWERS = [(11, 1, 8), (5, 1, 4), (2, 1, 8), (2, 2, 4), (3, 2, 2), (2, 3, 2)]


class TestFrobenius:
    """The F_p matrix behind ``frobenius`` against square-and-multiply."""

    def samples(self, ext, count=30):
        rng = random.Random(ext.order)
        yield ext.zero()
        yield ext.one()
        yield w_elem(ext)
        for _ in range(count):
            yield ext.from_index(rng.randrange(ext.order))

    @pytest.mark.parametrize("p,e,alpha", FROBENIUS_TOWERS)
    def test_matches_q_th_power(self, p, e, alpha):
        ext = tower(p, e, alpha)
        for x in self.samples(ext):
            assert ext.frobenius(x) == x ** ext.base.order

    @pytest.mark.parametrize("p,e,alpha", FROBENIUS_TOWERS)
    def test_alpha_fold_is_identity(self, p, e, alpha):
        ext = tower(p, e, alpha)
        for x in self.samples(ext, 10):
            img = x
            for _ in range(alpha):
                img = ext.frobenius(img)
            assert img == x

    @pytest.mark.parametrize("p,e,alpha", FROBENIUS_TOWERS)
    def test_trace_is_sum_of_power_conjugates(self, p, e, alpha):
        ext = tower(p, e, alpha)
        q = ext.base.order
        for x in self.samples(ext, 10):
            acc, conj = x, x
            for _ in range(alpha - 1):
                conj = Element(ext, ext.rpow(conj.coeffs, q))
                acc = acc + conj
            assert ext.lift(trace(x)) == acc


def _moebius(n):
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    return -result if n > 1 else result


def _gauss_count(q, d):
    # number of monic irreducibles of degree d over GF(q)
    return sum(_moebius(d // k) * q**k for k in range(1, d + 1) if d % k == 0) // d


def _accepts(build) -> bool:
    try:
        build()
    except ParameterError:
        return False
    return True


def _monic(lex, d, one):
    return (low + (one,) for low in itertools.product(lex, repeat=d))


class TestIrreducibleCounts:
    """The constructors accept exactly Gauss's count of monic irreducibles."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_prime_field_as_plain_ints(self, p, d):
        # the modulus of a base field: int coefficients
        count = sum(_accepts(lambda: FieldSpec(p, d, f)) for f in _monic(range(p), d, 1))
        assert count == _gauss_count(p, d)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_prime_field_as_one_tuples(self, p, d):
        # the modulus of an extension of a prime field: 1-tuple coefficients
        K = field(p, 1)
        count = sum(_accepts(lambda: ExtSpec(K, d, f)) for f in _monic(list(K.riter_lex()), d, K.rone))
        assert count == _gauss_count(p, d)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nonprime_base(self, p, d):
        K = field(p, 2)
        count = sum(_accepts(lambda: ExtSpec(K, d, f)) for f in _monic(list(K.riter_lex()), d, K.rone))
        assert count == _gauss_count(p * p, d)


def _rank(columns, lay):
    ech = modp.Echelon(lay)
    for col in columns:
        ech.insert(col)
    return len(ech.rows)


def _frobenius_by_powers(spec, q):
    # Q's packed columns, the images a^q of the power units a, and the
    # columns of Q - I
    lay = spec.digit_layout
    units = [spec.rfrom_index(spec.p**u) for u in range(lay.width)]
    Q = [lay.pack(spec.rpow(u, q)) for u in units]
    return Q, [lay.pack(spec.rsub(spec.rpow(u, q), u)) for u in units]


class TestIrreducibility:
    """Berlekamp's criterion against the distinct-degree gcd test."""

    @pytest.mark.parametrize("p,top", [(2, 6), (3, 4), (5, 3)])
    def test_prime_field_matches_reference(self, p, top):
        K = field(p, 1)
        for d in range(1, top + 1):
            for f in _monic(range(p), d, 1):
                want = reference_is_irreducible([(c,) for c in f], K)
                assert _accepts(lambda: FieldSpec(p, d, f)) == want, f
                assert _accepts(lambda: ExtSpec(K, d, tuple((c,) for c in f))) == want, f

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
    def test_nonprime_base_matches_reference(self, p, e):
        K = field(p, e)
        found = 0
        for d in (1, 2, 3):
            for f in _monic(list(K.riter_lex()), d, K.rone):
                want = reference_is_irreducible(list(f), K)
                assert _accepts(lambda: ExtSpec(K, d, f)) == want, f
                found += want
        q = p**e
        assert found == sum(_gauss_count(q, d) for d in (1, 2, 3))  # 240 cubics over GF(9)

    @pytest.mark.parametrize(
        "p,f",
        [(2, (1, 0, 1, 0, 1)), (3, (1, 2, 1))],
        ids=["(y^2+y+1)^2 over GF(2), f' = 0", "(y+1)^2 over GF(3), f' != 0"],
    )
    def test_squares_pass_the_rank_condition_alone(self, p, f):
        d = len(f) - 1
        K = field(p, 1)
        for cand in (FieldSpec._candidate(p, d, f), ExtSpec._candidate(K, d, tuple((c,) for c in f))):
            # a -> a^p - a by square-and-multiply has rank d - 1, as for an
            # irreducible modulus; f = g^2 is rejected by Q alone: a^p = 0
            # exactly for the multiples of g, so Q has rank deg g
            Q, moved = _frobenius_by_powers(cand, p)
            assert (_rank(moved, cand.digit_layout), _rank(Q, cand.digit_layout)) == (d - 1, d // 2)
            assert not cand._irreducible()
        with pytest.raises(ParameterError, match="reducible"):
            FieldSpec(p, d, f)
        with pytest.raises(ParameterError, match="reducible"):
            ExtSpec(K, d, tuple((c,) for c in f))

    @pytest.mark.parametrize(
        "p,e,d,k",
        [(p, e, d, k) for p, e in [(2, 1), (3, 1), (2, 2), (3, 2)] for d in (2, 3, 4) for k in sorted({2, p})],
    )
    def test_prime_powers_are_refused_by_q_alone(self, p, e, d, k):
        # f = g^k, g the pinned irreducible of degree d over K: R = K[y]/(f)
        # is local, so a -> a^|K| fixes only K and Q - I has rank n - c as
        # for an irreducible f; but a^|K| = 0 exactly when g divides a
        # (k <= |K|), so Q has rank c * d < n
        K = field(p, e)
        g = f = tower(p, e, d).modulus
        for _ in range(k - 1):
            f = tuple(_mul(f, g, K))
        cands = [ExtSpec._candidate(K, d * k, f)]
        if e == 1:
            cands.append(FieldSpec._candidate(p, d * k, tuple(c for c, in f)))
        for cand in cands:
            lay, n = cand.digit_layout, d * k * e
            Q, moved = _frobenius_by_powers(cand, K.order)
            assert (_rank(moved, lay), _rank(Q, lay)) == (n - e, d * e)
            assert not cand._irreducible()
            assert cand._frobenius_columns == Q
        with pytest.raises(ParameterError, match="reducible"):
            ExtSpec(K, d * k, f)
        if e == 1:
            with pytest.raises(ParameterError, match="reducible"):
                FieldSpec(p, d * k, tuple(c for c, in f))

    @pytest.mark.parametrize("p,d,count", [(11, 8, 80), (65521, 2, 100)])
    def test_sampled_prime_field_moduli_match_reference(self, p, d, count):
        # degree 8 over GF(11) takes y^p in one reduction (p <= 2d - 2),
        # degree 2 over GF(65521) by square-and-multiply
        K = field(p, 1)
        rng = random.Random(f"{p}^{d}")
        verdicts = []
        for _ in range(count):
            f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            want = reference_is_irreducible([(c,) for c in f], K)
            assert _accepts(lambda: FieldSpec(p, d, f)) == want, f
            assert _accepts(lambda: ExtSpec(K, d, tuple((c,) for c in f))) == want, f
            verdicts.append(want)
        assert 0 < sum(verdicts) < count

    @pytest.mark.parametrize("key", sorted(FIELDS) + sorted(TOWERS), ids=str)
    def test_frobenius_columns_are_powers_of_the_units(self, key):
        # the columns the test keeps are the |K|-th powers of the power
        # units, each by square-and-multiply on its own
        spec = field(*key) if len(key) == 3 else tower(*key)
        q = spec.base.order if isinstance(spec, ExtSpec) else spec.p
        assert spec._frobenius_columns == _frobenius_by_powers(spec, q)[0]

    @pytest.fixture
    def tested(self, monkeypatch):
        calls = []
        real = fields._Field._irreducible

        def spy(spec):
            calls.append((type(spec), spec.modulus))
            return real(spec)

        monkeypatch.setattr(fields._Field, "_irreducible", spy)
        return calls

    @pytest.mark.parametrize("p,e,alpha,seed", [(11, 1, 8, 201), (3, 2, 3, 0)])
    def test_make_tower_tests_once_per_level(self, tested, p, e, alpha, seed):
        # the first candidate passes at both levels, and the search's
        # verdict is not tested again
        ext = make_tower(p, e, alpha, seed)
        assert tested == [(FieldSpec, ext.base.modulus), (ExtSpec, ext.modulus)]

    def test_make_tower_tests_each_candidate_once(self, tested):
        ext = make_tower(2, 4, 4, 1)
        assert len(tested) > 2
        assert len(set(tested)) == len(tested)
        assert tested[-1] == (ExtSpec, ext.modulus)
        assert (FieldSpec, ext.base.modulus) in tested

    def test_constructors_still_test(self, tested):
        ext = tower(3, 2, 3)
        tested.clear()
        FieldSpec(3, 2, ext.base.modulus)
        ExtSpec(ext.base, 3, ext.modulus)
        assert tested == [(FieldSpec, ext.base.modulus), (ExtSpec, ext.modulus)]


class TestDualBasis:
    def test_gf4_dual_of_polynomial_basis_by_exhaustion(self):
        ext = tower(2, 1, 2)
        omega = ext.polynomial_basis()
        # independent oracle: search all candidate pairs for the trace conditions
        matches = []
        for m1 in ext.elements():
            for m2 in ext.elements():
                table = [
                    [trace(omega.elements[i] * m) for m in (m1, m2)] for i in range(2)
                ]
                if (
                    table[0][0] == ext.base.one()
                    and table[1][1] == ext.base.one()
                    and not table[0][1]
                    and not table[1][0]
                ):
                    matches.append((m1, m2))
        assert len(matches) == 1
        mu = dual_basis(omega)
        assert tuple(mu.elements) == matches[0]
        # the known answer: (1+w, 1)
        assert mu.elements[0].coeffs == (1, 1)
        assert mu.elements[1].coeffs == (1, 0)

    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 4), (5, 1, 2)])
    def test_delta_table_and_involution(self, p, e, alpha):
        ext = tower(p, e, alpha)
        rng = random.Random(p * 100 + alpha)
        for _ in range(3):
            elems = _random_basis(ext, rng)
            omega = OrderedBasis(ext, elems)
            mu = dual_basis(omega)
            for i in range(alpha):
                for j in range(alpha):
                    t = trace(omega.elements[i] * mu.elements[j])
                    assert t == (ext.base.one() if i == j else ext.base.zero())
            back = dual_basis(mu)
            assert back.elements == omega.elements

    def test_rank_deficient_rejected(self):
        ext = tower(2, 1, 2)
        with pytest.raises(InvalidBasisError):
            OrderedBasis(ext, (ext.one(), ext.one()))


def _random_basis(ext, rng):
    while True:
        cand = tuple(ext.from_index(rng.randrange(ext.order)) for _ in range(ext.alpha))
        if is_basis(ext, cand):
            return cand


class TestIsBasis:
    def test_polynomial_basis(self):
        ext = tower(3, 1, 3)
        assert is_basis(ext, ext.polynomial_basis().elements)

    def test_zero_entry_fails(self):
        ext = tower(2, 1, 2)
        assert not is_basis(ext, (ext.zero(), ext.one()))

    def test_gf4_pair(self):
        ext = tower(2, 1, 2)
        one = ext.one()
        w1 = ext.element((1, 1))  # 1 + w
        assert is_basis(ext, (one, w1))


# towers with e = 1, 2 and 3 and p from 2 to 65521, for the power multiples
POWER_TOWERS = [
    (2, 1, 5), (3, 1, 4), (7, 1, 3), (251, 1, 2), (65521, 1, 2),
    (2, 2, 3), (3, 2, 2), (7, 2, 2), (251, 2, 2), (65521, 2, 2),
    (2, 3, 2), (3, 3, 2), (7, 3, 2), (65521, 3, 2),
]


class TestPowerMultiples:
    """``power_multiples``: group by group, the products by the power units."""

    @pytest.mark.parametrize("p,e,alpha", POWER_TOWERS)
    def test_groups_match_element_products(self, p, e, alpha):
        ext = tower(p, e, alpha)
        rng = random.Random(p * e * alpha)
        for spec in (ext, ext.base):
            n = spec.digit_layout.width  # D
            units = [spec.from_index(p**u) for u in range(n)]
            top = Element(spec, (p - 1,) * n)  # every digit at p - 1
            values = [top, spec.zero(), top] + [spec.from_index(rng.randrange(spec.order)) for _ in range(3)]
            lanes = len(values) * n
            # a layout one group wider than the values, so lanes past them stay clear
            for lay in (modp.layout(p, lanes), modp.layout(p, lanes + n)):
                v = lay.pack([d for el in values for d in el.coeffs])
                out = spec.power_multiples(v, lay, lanes)
                assert len(out) == n
                for u, prod in enumerate(out):
                    want = [d for el in values for d in (el * units[u]).coeffs]
                    assert lay.digits(prod) == want + [0] * (lay.lanes - lanes), (spec, u)

    @pytest.mark.parametrize("p,e,alpha", [(2, 2, 3), (3, 2, 4), (7, 1, 3)])
    def test_no_lanes(self, p, e, alpha):
        # a 0-row matrix packs to 0 under a 0-lane layout: every multiple is 0
        ext = tower(p, e, alpha)
        for spec in (ext, ext.base):
            assert spec.power_multiples(0, modp.layout(p, 0), 0) == [0] * spec.digit_layout.width


# the quadratic-root grid: e = 1, 2, 3 and alpha = 2, 4, 6 on seeds 0 and
# 1, and GF(251^2), whose walk takes about a second
ROOT_TOWERS = [
    (2, 1, 2), (3, 1, 2), (7, 1, 2), (11, 1, 2), (2, 2, 2), (3, 2, 2), (2, 3, 2),
    (2, 1, 4), (3, 1, 4), (2, 2, 4), (3, 2, 4), (2, 3, 4), (2, 1, 6), (2, 2, 6),
]
ROOT_CASES = [t + (seed,) for t in ROOT_TOWERS for seed in (0, 1)] + [(251, 1, 2, 0)]


class TestQuadraticRoot:
    @pytest.mark.parametrize("p,e,alpha,seed", ROOT_CASES)
    def test_matches_subfield_walk(self, p, e, alpha, seed):
        # the trace-line search returns the quadratic and root that the
        # lexicographic walk over the degree-2 subfield returns
        ext = tower(p, e, alpha, seed)
        assert find_quadratic_root(ext) == reference_quadratic_root(ext)
        minus_one = -ext.base.one()
        assert quadratic_root_with_constant(ext, minus_one) == reference_quadratic_root(ext, minus_one)

    def test_large_prime_root_without_walk(self):
        # q^2 members would take minutes to walk at p = 65521
        ext = tower(65521, 1, 2)
        for root in (find_quadratic_root(ext), quadratic_root_with_constant(ext, -ext.base.one())):
            la0, la1 = ext.lift(root.a0), ext.lift(root.a1)
            assert not root.b * root.b + la1 * root.b + la0
            assert ext.as_base(root.b) is None
            other = -la1 - root.b
            assert root.b.coeffs < other.coeffs

    def test_gf2_alpha2(self):
        ext = tower(2, 1, 2)
        root = find_quadratic_root(ext)
        assert root.a0.coeffs == (1,) and root.a1.coeffs == (1,)
        assert root.b == w_elem(ext)

    def test_gf2_alpha4_root_has_order_three(self):
        ext = tower(2, 1, 4)
        root = find_quadratic_root(ext)
        assert root.a0.coeffs == (1,) and root.a1.coeffs == (1,)
        assert root.b**3 == ext.one()
        assert root.b != ext.one()

    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 4)])
    def test_root_satisfies_polynomial_and_avoids_base(self, p, e, alpha):
        ext = tower(p, e, alpha)
        root = find_quadratic_root(ext)
        lhs = root.b * root.b + ext.lift(root.a1) * root.b + ext.lift(root.a0)
        assert lhs == ext.zero()
        assert ext.as_base(root.b) is None
        # irreducibility: no base-field root
        for x in ext.base.elements():
            assert x * x + root.a1 * x + root.a0 != ext.base.zero()

    def test_odd_alpha_rejected(self):
        with pytest.raises(ParameterError):
            find_quadratic_root(tower(2, 1, 3))


class TestSubfields:
    def test_d1_basis_is_one(self):
        ext = tower(3, 1, 2)
        basis = subfield_basis(ext, 1)
        assert len(basis) == 1
        assert basis[0] == ext.one()

    def test_full_field(self):
        ext = tower(2, 1, 4)
        basis = subfield_basis(ext, 4)
        assert is_basis(ext, basis)

    def test_gf16_degree2_kernel(self):
        ext = tower(2, 1, 4)
        members = reference_subfield_members(ext, 2)
        assert len(members) == 4
        q = ext.base.order
        for x in members:
            assert x ** (q**2) == x
        # closure under addition and multiplication
        mset = set(m.coeffs for m in members)
        for a in members:
            for b in members:
                assert (a + b).coeffs in mset
                assert (a * b).coeffs in mset

    def test_bad_divisor(self):
        with pytest.raises(ParameterError):
            subfield_basis(tower(2, 1, 4), 3)


class TestLucas:
    def test_known_values(self):
        assert lucas_binom(2, 1, 2) == 0
        assert lucas_binom(3, 1, 2) == 1
        assert lucas_binom(5, 2, 3) == 1
        assert math.comb(5, 2) % 3 == 1

    def test_against_integer_binomial(self):
        for p in (2, 3, 5):
            for b in range(31):
                for a in range(b + 2):
                    assert lucas_binom(b, a, p) == math.comb(b, a) % p

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            lucas_binom(3, 1, 4)
        with pytest.raises(ParameterError):
            lucas_binom(-1, 0, 2)


class TestEncodingOrders:
    def test_index_roundtrip(self):
        ext = tower(3, 1, 2)
        for k in range(ext.order):
            assert ext.index_of(ext.from_index(k)) == k

    def test_lex_enumeration_is_sorted(self):
        ext = tower(2, 2, 2)
        lex = [el.coeffs for el in ext.lex_elements()]
        assert lex == sorted(lex)
        assert len(lex) == ext.order

    def test_primitive_element_is_lex_first_full_order(self):
        f = field(5, 1)
        g = f.primitive_element()
        assert g.coeffs == (2,)  # 2 generates GF(5)*
        f4 = field(2, 2)
        g4 = f4.primitive_element()
        assert g4.coeffs == (0, 1)  # x comes before 1 in coefficient lex order

    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
    def test_primitive_element_by_brute_force(self, p, e, alpha):
        # the order of each element by repeated multiplication, no powering
        ext = tower(p, e, alpha)
        one = ext.one()

        def order(x):
            k, acc = 1, x
            while acc != one:
                k, acc = k + 1, acc * x
            return k

        first = next(x for x in ext.lex_elements() if x and order(x) == ext.order - 1)
        assert ext.primitive_element() == first
