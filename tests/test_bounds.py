import math
from fractions import Fraction

import pytest

from hierasure import (
    ParameterError,
    asymptotic_field_size,
    excluded_columns_bound,
    gv_field_threshold,
    singleton_check,
)
from hierasure.bounds import binary_entropy, is_prime_power
from hierasure.fields import is_prime


class TestSingleton:
    def test_one_symbol_budget(self):
        report = singleton_check(4, 3, 2, 2)
        assert report.m_prime == 1 and report.ok

    def test_two_symbols_impossible(self):
        report = singleton_check(2, 1, 4, 2)
        assert report.m_prime == 2 and not report.ok

    def test_sub_symbol_budget_always_fine(self):
        report = singleton_check(2, 2, 1, 2)
        assert report.m_prime == 0 and report.ok

    def test_dimension_above_length_rejected(self):
        with pytest.raises(ParameterError, match="need k <= n"):
            singleton_check(4, 9, 1, 2)
        assert singleton_check(4, 4, 1, 2).ok


class TestGvThreshold:
    def test_acceptance_point(self):
        th = gv_field_threshold(3, 1, 2, 2)
        assert th.base == 4 and th.exponent_den == 1 and th.q_min == 5

    def test_n2_base_is_m_plus_one(self):
        th = gv_field_threshold(2, 3, 4, 2)
        assert th.base == 4

    def test_square_root_regime(self):
        th = gv_field_threshold(4, 2, 2, 3)
        assert th.base == 18 and th.exponent_den == 2 and th.q_min == 5

    def test_threshold_really_is_threshold(self):
        th = gv_field_threshold(4, 2, 2, 3)
        assert th.q_min**th.exponent_den > th.base
        for q in range(2, th.q_min):
            if is_prime_power(q):
                assert q**th.exponent_den <= th.base

    def test_m_too_large(self):
        with pytest.raises(ParameterError):
            gv_field_threshold(3, 2, 2, 2)


class TestPrimePower:
    def test_classification_small(self):
        powers = {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32}
        for v in range(2, 33):
            assert is_prime_power(v) == (v in powers)
        assert not is_prime_power(1)
        assert not is_prime_power(0)

    def test_matches_a_sieve(self):
        # the shared trial factorization against a sieve of Eratosthenes
        limit = 10_000
        composite = bytearray(limit + 1)
        primes = []
        for v in range(2, limit + 1):
            if not composite[v]:
                primes.append(v)
                composite[v * v :: v] = b"\x01" * len(range(v * v, limit + 1, v))
        powers = {p**k for p in primes for k in range(1, limit.bit_length()) if p**k <= limit}
        prime_set = set(primes)
        for v in range(-2, limit + 1):
            assert is_prime(v) == (v in prime_set), v
            assert is_prime_power(v) == (v in powers), v


class TestExcludedColumns:
    def test_worked_example(self):
        eb = excluded_columns_bound(3, 1, 1, 2)
        assert eb.tight == 10 and eb.loose == 16

    def test_m0_degenerates_to_scalars(self):
        eb = excluded_columns_bound(3, 0, 2, 3)
        assert eb.tight == 9 and eb.loose == 9

    def test_tight_below_loose(self):
        for n in (2, 3, 5):
            for m in (0, 1, 3):
                for alpha in (1, 2):
                    for q in (2, 3, 5):
                        eb = excluded_columns_bound(n, m, alpha, q)
                        assert eb.tight <= eb.loose

    def test_monotone_in_each_parameter(self):
        base = excluded_columns_bound(3, 2, 2, 3)
        assert excluded_columns_bound(4, 2, 2, 3).tight >= base.tight
        assert excluded_columns_bound(3, 3, 2, 3).tight >= base.tight
        assert excluded_columns_bound(3, 2, 2, 4).tight >= base.tight
        assert excluded_columns_bound(4, 2, 2, 3).loose >= base.loose
        assert excluded_columns_bound(3, 3, 2, 3).loose >= base.loose
        assert excluded_columns_bound(3, 2, 2, 4).loose >= base.loose

    def test_reproducible(self):
        a = excluded_columns_bound(6, 4, 3, 5)
        b = excluded_columns_bound(6, 4, 3, 5)
        assert a == b


class TestAsymptotics:
    def test_alpha_regime_is_one(self):
        for c1, c2 in ((1, 1), (Fraction(1, 2), 3), (2, Fraction(1, 4))):
            assert asymptotic_field_size("alpha_large", c1, c2).value == 1.0

    def test_n_regime_balanced_point(self):
        lim = asymptotic_field_size("n_large", 1, 1)
        assert lim.value == pytest.approx(4.0, abs=1e-12)
        assert "H" in lim.closed_form

    def test_n_regime_degenerate_entropy(self):
        assert asymptotic_field_size("n_large", 0, 1).value == pytest.approx(1.0)

    def test_entropy_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.25) == pytest.approx(
            -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        )

    def test_unknown_regime(self):
        with pytest.raises(ParameterError):
            asymptotic_field_size("sideways", 1, 1)
