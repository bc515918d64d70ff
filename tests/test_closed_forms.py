"""Closed-form maximal patterns and the lazy subfield walk against exhaustive searches.

``maximal_patterns`` generates the balanced and power maxima directly and
``iter_subfield_members`` walks a subfield in lexicographic order without
sorting; the references in ``reference.py`` are the dominance filter over
every family member and the sorted list of every subfield member.
"""

import itertools

import pytest

from hierasure import (
    BalancedFamily,
    PowerFamily,
    maximal_patterns,
    subfield_chain_basis,
    subfield_members,
)
from hierasure.fields import iter_subfield_members
from reference import (
    reference_first_outside,
    reference_local_maxima,
    reference_maximal_patterns,
    reference_subfield_members,
)
from towers import tower

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


def _divisors(ext):
    return [d for d in range(1, ext.alpha + 1) if ext.alpha % d == 0 and ext.base.order**d <= 5000]


class TestSubfieldWalk:
    @pytest.mark.parametrize("p,e,alpha", SUBFIELD_TOWERS)
    def test_members_match_sorted_reference(self, p, e, alpha):
        ext = tower(p, e, alpha)
        for d in _divisors(ext):
            assert subfield_members(ext, d) == reference_subfield_members(ext, d)

    @pytest.mark.parametrize("p,e,alpha", SUBFIELD_TOWERS + [(11, 1, 8)])
    def test_chain_steps_match_reference(self, p, e, alpha):
        ext = tower(p, e, alpha)
        beta = alpha.bit_length() - 1
        expected = [reference_first_outside(ext, 1 << i, 1 << (i - 1)) for i in range(1, beta + 1)]
        assert list(subfield_chain_basis(ext).steps) == expected

    def test_whole_field_walk_is_lex_order(self):
        ext = tower(11, 1, 8)
        head = list(itertools.islice(iter_subfield_members(ext, 8), 200))
        assert head == list(itertools.islice(ext.lex_elements(), 200))
