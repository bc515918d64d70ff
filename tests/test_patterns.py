import pytest

from hierasure import (
    BalancedFamily,
    BoundedFamily,
    FullFamily,
    ParameterError,
    PowerFamily,
    apply_erasure,
    enumerate_family,
    family_contains,
    hierarchical_weight,
    invisible_generators,
    maximal_patterns,
    parse_family,
)
from towers import tower


class TestEnumeration:
    def test_full_small(self):
        pats = set(enumerate_family(FullFamily(2, 2, 2)))
        assert pats == {(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)}
        assert len(pats) == 6

    def test_lexicographic_order(self):
        for fam in (FullFamily(2, 3, 3), BalancedFamily(4, 4), PowerFamily(4, 3), BoundedFamily(2, 3)):
            pats = list(enumerate_family(fam))
            assert pats == sorted(pats)
            assert len(pats) == len(set(pats))

    def test_balanced_examples(self):
        fam = BalancedFamily(4, 4)
        pats = set(enumerate_family(fam))
        assert (2, 0, 2, 0) in pats
        assert (1, 1, 1, 1) in pats
        assert (2, 1, 1, 0) not in pats

    def test_power_example(self):
        fam = PowerFamily(4, 4)
        pats = set(enumerate_family(fam))
        assert (2, 1, 1, 0) in pats
        assert (4, 0, 0, 0) in pats
        assert (0, 0, 0, 0) in pats
        assert (2, 1, 1, 1) not in pats

    def test_bounded_count(self):
        for r, n in ((1, 3), (2, 3), (1, 4)):
            assert len(list(enumerate_family(BoundedFamily(r, n)))) == (r + 1) ** n

    def test_enumerate_agrees_with_contains(self):
        for fam in (FullFamily(2, 3, 3), BalancedFamily(4, 3), PowerFamily(4, 3)):
            listed = set(enumerate_family(fam))
            import itertools

            everything = set(itertools.product(range(fam.alpha + 1), repeat=fam.n))
            for t in everything:
                assert (t in listed) == family_contains(fam, t)


class TestContains:
    def test_balanced_rejects_mixed_scales(self):
        assert not family_contains(BalancedFamily(4, 4), (2, 1, 1, 0))

    def test_zero_pattern_everywhere(self):
        assert family_contains(FullFamily(2, 2, 3), (0, 0, 0))
        assert family_contains(BoundedFamily(1, 3), (0, 0, 0))
        assert family_contains(BalancedFamily(4, 3), (0, 0, 0))
        assert family_contains(PowerFamily(4, 3), (0, 0, 0))

    def test_bounded_componentwise(self):
        fam = BoundedFamily(1, 3)
        assert family_contains(fam, (0, 1, 1))
        assert not family_contains(fam, (2, 0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            family_contains(FullFamily(2, 2, 3), (1, 1))


class TestMaximal:
    def test_full_small(self):
        assert set(maximal_patterns(FullFamily(2, 2, 2))) == {(2, 0), (1, 1), (0, 2)}

    def test_bounded_single(self):
        assert list(maximal_patterns(BoundedFamily(2, 4))) == [(2, 2, 2, 2)]

    def test_power_alpha2(self):
        assert set(maximal_patterns(PowerFamily(2, 2))) == {(2, 0), (0, 2), (1, 1)}

    def test_every_member_dominated(self):
        for fam in (
            FullFamily(2, 3, 3),
            FullFamily(3, 2, 2),
            BalancedFamily(4, 4),
            PowerFamily(4, 4),
            BoundedFamily(2, 3),
        ):
            maxima = list(maximal_patterns(fam))
            for t in enumerate_family(fam):
                assert any(all(a <= b for a, b in zip(t, mx)) for mx in maxima)
            # maxima are incomparable
            for a in maxima:
                for b in maxima:
                    if a != b:
                        assert not all(x <= y for x, y in zip(a, b))

    def test_balanced_inside_power_up_to_dominance(self):
        # componentwise-dominance inclusion; literal inclusion fails, e.g. (1,0,0,0)
        for alpha in (1, 2, 4, 8):
            for n in (2, 3, 4):
                power_maxima = list(maximal_patterns(PowerFamily(alpha, n)))
                for t in enumerate_family(BalancedFamily(alpha, n)):
                    assert any(
                        all(a <= b for a, b in zip(t, mx)) for mx in power_maxima
                    )
        assert family_contains(BalancedFamily(4, 4), (1, 0, 0, 0))
        assert not family_contains(PowerFamily(4, 4), (1, 0, 0, 0))

    def test_power_inside_full_literally(self):
        for alpha in (1, 2, 4, 8):
            for n in (2, 3, 4):
                full = set(enumerate_family(FullFamily(alpha, alpha, n)))
                assert set(enumerate_family(PowerFamily(alpha, n))) <= full


class TestFamilyValidation:
    def test_balanced_needs_power_of_two(self):
        with pytest.raises(ParameterError):
            BalancedFamily(3, 2)

    def test_bounded_needs_r_below_n(self):
        with pytest.raises(ParameterError):
            BoundedFamily(3, 3)

    def test_full_budget_cap(self):
        with pytest.raises(ParameterError):
            FullFamily(2, 7, 3)

    @pytest.mark.parametrize("bad", [4.0, "4", True, None])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: FullFamily(v, 2, 4),
            lambda v: FullFamily(4, v, 4),
            lambda v: FullFamily(4, 2, v),
            lambda v: BalancedFamily(v, 4),
            lambda v: BalancedFamily(4, v),
            lambda v: PowerFamily(v, 4),
            lambda v: PowerFamily(4, v),
            lambda v: BoundedFamily(v, 4),
            lambda v: BoundedFamily(1, v),
        ],
        ids=["full.alpha", "full.m", "full.n", "balanced.alpha", "balanced.n",
             "power.alpha", "power.n", "bounded.r", "bounded.n"],
    )
    def test_fields_must_be_integers(self, make, bad):
        # 4.0 == 4 and True == 1 would pass the range checks and fail later
        with pytest.raises(ParameterError, match="must be an integer"):
            make(bad)


class TestWeight:
    def test_zero_word(self):
        ext = tower(2, 1, 2)
        omega = ext.polynomial_basis()
        assert hierarchical_weight((ext.zero(), ext.zero()), omega) == 0

    def test_basis_entries(self):
        ext = tower(2, 1, 2)
        omega = ext.polynomial_basis()
        w1, w2 = omega.elements
        assert hierarchical_weight((w1, w2), omega) == 1 + 2
        assert hierarchical_weight((w1 + w2, ext.zero()), omega) == 2


class TestInvisibleGenerators:
    def test_worked_example(self):
        # n=3, t=(2,1,1): four generators placing basis entries per slot
        ext = tower(2, 1, 2)
        omega = ext.polynomial_basis()
        w1, w2 = omega.elements
        z = ext.zero()
        gens = invisible_generators((2, 1, 1), omega)
        assert gens == [
            (w1, z, z),
            (w2, z, z),
            (z, w1, z),
            (z, z, w1),
        ]

    def test_zero_pattern(self):
        ext = tower(2, 1, 2)
        assert invisible_generators((0, 0), ext.polynomial_basis()) == []

    def test_count_is_total(self):
        ext = tower(3, 1, 2)
        omega = ext.polynomial_basis()
        for t in enumerate_family(FullFamily(2, 4, 3)):
            assert len(invisible_generators(t, omega)) == sum(t)

    def test_generators_vanish_under_erasure(self):
        ext = tower(2, 1, 2)
        omega = ext.polynomial_basis()
        zero_word = (ext.zero(), ext.zero())
        for t in enumerate_family(FullFamily(2, 2, 2)):
            for g in invisible_generators(t, omega):
                assert hierarchical_weight(g, omega) <= sum(t)
                assert apply_erasure(g, t, omega) == apply_erasure(zero_word, t, omega)


class TestApplyErasure:
    def test_nothing_erased(self):
        ext = tower(2, 1, 3)
        omega = ext.polynomial_basis()
        word = (omega.elements[2], ext.one())
        rw = apply_erasure(word, (0, 0), omega)
        assert rw.known[0] == omega.coordinates(word[0])
        assert rw.known[1] == omega.coordinates(word[1])

    def test_alpha3_shape(self):
        ext = tower(2, 1, 3)
        omega = ext.polynomial_basis()
        word = tuple(omega.elements[i % 3] for i in range(4))
        rw = apply_erasure(word, (1, 2, 1, 1), omega)
        assert [len(s) for s in rw.known] == [2, 1, 2, 2]
        for i, ti in enumerate((1, 2, 1, 1)):
            assert rw.known[i] == omega.coordinates(word[i])[ti:]

    def test_pattern_too_deep(self):
        ext = tower(2, 1, 2)
        omega = ext.polynomial_basis()
        with pytest.raises(ParameterError):
            apply_erasure((ext.one(), ext.one()), (3, 0), omega)


class TestParseFamily:
    def test_round_trips(self):
        assert parse_family("full:2", 2, 3) == FullFamily(2, 2, 3)
        assert parse_family("balanced", 4, 4) == BalancedFamily(4, 4)
        assert parse_family("power", 4, 2) == PowerFamily(4, 2)
        assert parse_family("bounded:1", 3, 3) == BoundedFamily(1, 3)

    def test_rejects_unknown(self):
        with pytest.raises(ParameterError):
            parse_family("diagonal", 2, 2)
        with pytest.raises(ParameterError):
            parse_family("full", 2, 2)
