"""Closed-form maximal patterns, member walks and subfield representatives against exhaustive searches.

``maximal_patterns`` generates the balanced and power maxima directly,
``enumerate_family`` walks only balanced and power members, and
``fields.first_outside`` reads the lexicographically first member
of one subfield outside a smaller one off the bigger subfield's echelon
basis; the references in ``reference.py`` are the dominance filter over
every family member, the filter of the bounded simplex, and a scan of the
sorted list of every subfield member (of the whole field in lex order).
Subfield membership, one packed map of x -> x^(q^d), is checked against
d repeated q-th powers, and the subfield bases, kernels of that map taken
on its packed columns, against ``linalg.right_kernel`` of the map's
Element matrix built from d repeated q-th powers.
"""

import random

import pytest

from hierasure import (
    BalancedFamily,
    linalg,
    PowerFamily,
    enumerate_family,
    maximal_patterns,
    subfield_chain_basis,
)
from hierasure.fields import _subfield_echelon, first_outside, in_subfield, subfield_basis
from reference import _in_subfield as reference_in_subfield
from reference import (
    reference_enumerate_family,
    reference_first_outside,
    reference_local_maxima,
    reference_maximal_patterns,
)
from towers import TOWERS, tower

BALANCED_GRID = [(alpha, n) for alpha in (1, 2, 4, 8, 16) for n in range(1, 11)]
# the quadratic filter where the family has at most about 1,000 members;
# the local search covers the whole grid
QUADRATIC_GRID = [(a, n) for a, n in BALANCED_GRID if a <= 4 or n <= 4 or (a == 8 and n <= 6)]

SUBFIELD_TOWERS = [(2, 1, 8), (3, 1, 4), (5, 1, 4), (2, 2, 4), (3, 2, 2), (2, 3, 2)]


class TestMaximalPatterns:
    @pytest.mark.parametrize("alpha,n", QUADRATIC_GRID)
    def test_balanced_matches_dominance_filter(self, alpha, n):
        fam = BalancedFamily(alpha, n)
        assert list(maximal_patterns(fam)) == reference_maximal_patterns(fam)

    @pytest.mark.parametrize("alpha,n", BALANCED_GRID)
    def test_balanced_matches_local_search(self, alpha, n):
        fam = BalancedFamily(alpha, n)
        assert list(maximal_patterns(fam)) == reference_local_maxima(fam)

    @pytest.mark.parametrize("alpha,n", [(alpha, n) for alpha in (1, 2, 4, 8) for n in range(1, 9)])
    def test_power_matches_dominance_filter(self, alpha, n):
        fam = PowerFamily(alpha, n)
        assert list(maximal_patterns(fam)) == reference_maximal_patterns(fam)

    @pytest.mark.parametrize("n,count", [(6, 36), (8, 107), (10, 310)])
    def test_balanced_counts(self, n, count):
        assert len(list(maximal_patterns(BalancedFamily(8, n)))) == count


class TestEnumeration:
    @pytest.mark.parametrize("family", [BalancedFamily, PowerFamily])
    @pytest.mark.parametrize("alpha,n", [(alpha, n) for alpha in (1, 2, 4, 8) for n in range(1, 9)])
    def test_walk_matches_filter(self, family, alpha, n):
        fam = family(alpha, n)
        assert list(enumerate_family(fam)) == reference_enumerate_family(fam)


# e = 1, 2 and 3 towers; alpha 6 and 12 have the odd part that
# b_symmetric_basis doubles from.  In five of them, (2, 1, 12, 0),
# (3, 1, 8, 1), (3, 1, 12, 0), (2, 2, 6, 5) and (5, 1, 8, 3), the last
# echelon vector of a big subfield lies in the small one, so the answer
# sits at an earlier pivot
FIRST_OUTSIDE_TOWERS = [
    (p, e, alpha, seed)
    for p, e in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]
    for alpha in (2, 4, 6, 8, 12)
    for seed in (0, 1)
] + [(2, 2, 6, 5), (5, 1, 8, 3)]
# the reference sorts every member of a proper subfield, so keep those small
_MEMBER_CAP = 1024


def _nested_pairs(ext):
    divisors = [d for d in range(1, ext.alpha + 1) if ext.alpha % d == 0]
    return [
        (big, small)
        for big in divisors
        if big == ext.alpha or ext.base.order**big <= _MEMBER_CAP
        for small in divisors
        if small < big and big % small == 0
    ]


class TestSubfieldWalk:
    """Subfield representatives in closed form against the lexicographic scan."""

    @pytest.mark.parametrize("p,e,alpha,seed", FIRST_OUTSIDE_TOWERS)
    def test_first_outside_matches_reference(self, p, e, alpha, seed):
        ext = tower(p, e, alpha, seed)
        pairs = _nested_pairs(ext)
        assert pairs
        for big, small in pairs:
            assert first_outside(ext, big, small) == reference_first_outside(ext, big, small), (big, small)

    @pytest.mark.parametrize("p,e,alpha", SUBFIELD_TOWERS + [(11, 1, 8)])
    def test_chain_steps_match_reference(self, p, e, alpha):
        ext = tower(p, e, alpha)
        beta = alpha.bit_length() - 1
        expected = [reference_first_outside(ext, 1 << i, 1 << (i - 1)) for i in range(1, beta + 1)]
        assert list(subfield_chain_basis(ext).steps) == expected


class TestSubfieldMembership:
    """The packed test x^(q^d) = x against d repeated q-th powers."""

    # e = 1, 2 and 3 bases; alpha 6 has the odd divisor 3, whose map
    # composes an odd and an even power of the Frobenius
    @pytest.mark.parametrize("p,e,alpha", SUBFIELD_TOWERS + [(11, 1, 8), (3, 2, 8), (2, 1, 6), (2, 2, 6), (3, 1, 6)])
    def test_packed_test_matches_repeated_powers(self, p, e, alpha):
        ext = tower(p, e, alpha)
        base = ext.base
        rng = random.Random(p * e * alpha)
        others = [ext.from_index(rng.randrange(ext.order)) for _ in range(8)]
        y = ext.polynomial_basis().elements[min(1, alpha - 1)]  # generates the whole field
        for d in (d for d in range(1, alpha + 1) if alpha % d == 0):
            basis = subfield_basis(ext, d)
            combos = [
                sum((ext.lift(base.from_index(rng.randrange(base.order))) * v for v in basis), ext.zero())
                for _ in range(4)
            ]
            for el in basis + _subfield_echelon(ext, d) + combos:
                assert reference_in_subfield(ext, el, d)
                assert in_subfield(ext, el, d)
            if d < alpha:
                assert not reference_in_subfield(ext, y, d)
                assert not in_subfield(ext, y, d)
            for el in others:
                assert in_subfield(ext, el, d) == reference_in_subfield(ext, el, d), (d, el)


class TestSubfieldBases:
    """``subfield_basis`` and ``_subfield_echelon`` take the kernel of x ->
    x^(q^d) - x on its packed columns; ``linalg.right_kernel`` of the same
    map as an alpha x alpha Element matrix, whose column j is y^j raised to
    q^d by d q-th powers, minus y^j, must give the same canonical basis
    in the same order."""

    @pytest.mark.parametrize("p,e,alpha,seed", sorted(TOWERS))
    def test_kernels_match_right_kernel(self, p, e, alpha, seed):
        ext = tower(p, e, alpha, seed)
        units = ext.polynomial_basis().elements
        for d in (d for d in range(1, alpha + 1) if alpha % d == 0):
            images = []
            for y in units:
                z = y
                for _ in range(d):
                    z = ext.frobenius(z)
                images.append(z - y)
            matrix = [[ext.base.element(z.coeffs[k * e : k * e + e]) for z in images] for k in range(alpha)]
            kernel = linalg.right_kernel(matrix, alpha, ext.base)
            assert subfield_basis(ext, d) == [ext.element([x for c in v for x in c.coeffs]) for v in kernel]
            flipped = linalg.right_kernel([row[::-1] for row in matrix], alpha, ext.base)
            echelon = [ext.element([x for c in reversed(v) for x in c.coeffs]) for v in reversed(flipped)]
            assert _subfield_echelon(ext, d) == echelon
