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

The constructions' closed forms are checked the same way: the check rows
of ``balanced_code`` and ``power_code`` against the lifted Vandermonde
matrix folded by ``fold_halves`` once per chain step, the twisted second
matrix of ``square_trace_udms`` against the product with its explicit
lower-triangular factor, and ``find_quadratic_root`` with a pinned
constant against ``reference_quadratic_root``.
"""

import random
import warnings

import pytest

import element_linalg
from hierasure import (
    BalancedFamily,
    ConstructionError,
    ParameterError,
    linalg,
    PowerFamily,
    balanced_code,
    enumerate_family,
    find_quadratic_root,
    fold_halves,
    maximal_patterns,
    power_code,
    square_trace_code,
    square_trace_udms,
    subfield_chain_basis,
    vontobel_udms,
)
from hierasure.fields import _subfield_echelon, first_outside, in_subfield, subfield_basis
from reference import _in_subfield as reference_in_subfield
from reference import (
    reference_enumerate_family,
    reference_first_outside,
    reference_local_maxima,
    reference_maximal_patterns,
    reference_quadratic_root,
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


# e = 1, 2, 3 and alpha = 1, 2, 4, 8
CONSTRUCTION_TOWERS = [
    (p, e, alpha) for p, e in ((2, 1), (5, 1), (2, 2), (3, 2), (2, 3)) for alpha in (1, 2, 4, 8)
] + [(13, 1, 4)]


def _folded_row(ext, nu):
    # the long way: the alpha x n Vandermonde matrix on the lifted nodes,
    # folded in half by each chain step in turn down to one row
    matrix = [[ext.lift(v**i) for v in nu] for i in range(ext.alpha)]
    for step in subfield_chain_basis(ext).steps:
        matrix = fold_halves(matrix, step)
    assert len(matrix) == 1
    return tuple(matrix[0])


def _power_nodes(ext, rng, n):
    # n random nonzero nodes with distinct (alpha/2)-th powers
    half = ext.alpha // 2
    nonzero = [el for el in ext.base.elements() if el]
    rng.shuffle(nonzero)
    nodes, powers = [], set()
    for v in nonzero:
        if (v**half).coeffs not in powers:
            powers.add((v**half).coeffs)
            nodes.append(v)
    return nodes[:n]


class TestConstructionClosedForms:
    @pytest.mark.parametrize("p,e,alpha", CONSTRUCTION_TOWERS)
    def test_folded_rows_match_repeated_folds(self, p, e, alpha):
        ext = tower(p, e, alpha)
        base = ext.base
        q = base.order
        rng = random.Random(1000 * p + 10 * e + alpha)
        zero = base.zero()
        sizes = sorted({1, min(q, 3), q})
        # default nodes (zero among them when n = q), then seeded supplied
        # sets, one of which always holds the zero node
        cases = [(n, None) for n in sizes]
        for n in sizes:
            cases.append((n, [base.from_index(k) for k in rng.sample(range(q), n)]))
            others = [base.from_index(k) for k in rng.sample(range(1, q), n - 1)]
            cases.append((n, [*others[: n // 2], zero, *others[n // 2 :]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n, nu in cases:
                code = balanced_code(n, ext, nu)
                nodes = [base.element(tuple(c)) for c in code.provenance["nu"]]
                assert nu is None or nodes == nu
                assert code.H == (_folded_row(ext, nodes),), (n, nu)
                assert code.omega == subfield_chain_basis(ext).omega
                assert code.claim == BalancedFamily(alpha, n)
        half = alpha // 2
        if alpha == 1 or (q - 1) % half:
            return
        most = 2 * (q - 1) // alpha
        for n in sorted({1, min(most, 3), most}):
            for nu in (None, _power_nodes(ext, rng, n)):
                code = power_code(n, ext, nu)
                nodes = [base.element(tuple(c)) for c in code.provenance["nu"]]
                assert nu is None or nodes == nu
                assert code.H == (_folded_row(ext, nodes),), (n, nu)
                assert code.claim == PowerFamily(alpha, n)

    @pytest.mark.parametrize("p,e,alpha", [t for t in CONSTRUCTION_TOWERS if t[2] > 1])
    def test_twist_matches_the_lower_triangular_factor(self, p, e, alpha):
        ext = tower(p, e, alpha)
        base = ext.base
        if base.order < alpha - 1:
            # the classical set refuses the field, for the code as for the set
            message = f"field size {base.order} is below n-1={alpha - 1}"
            with pytest.raises(ParameterError, match=message):
                square_trace_code(ext)
            with pytest.raises(ParameterError, match=message):
                square_trace_udms(ext, find_quadratic_root(ext))
            return
        classical = vontobel_udms(alpha, alpha, alpha, base)
        half = alpha // 2
        one, zero = base.one(), base.zero()
        for root in (find_quadratic_root(ext), find_quadratic_root(ext, -one)):
            factor = [[one if j == i else zero for j in range(alpha)] for i in range(half)]
            for k in range(1, half + 1):
                row = [zero] * alpha
                row[half - k], row[half + k - 1] = -root.a1, -root.a0
                factor.append(row)
            twisted = element_linalg.mat_mul(factor, [list(r) for r in classical.matrices[1]], base)
            u = square_trace_udms(ext, root)
            assert u.matrices == (classical.matrices[0], tuple(map(tuple, twisted)), *classical.matrices[2:])

    @pytest.mark.parametrize("p,e,alpha", [t for t in CONSTRUCTION_TOWERS if t[2] > 1])
    def test_pinned_quadratic_root_matches_reference(self, p, e, alpha):
        ext = tower(p, e, alpha)
        base = ext.base
        rng = random.Random(1000 * p + 10 * e + alpha)
        constants = [-base.one(), *rng.sample(list(base.elements())[1:], min(base.order - 1, 3))]
        for a0 in constants:
            assert find_quadratic_root(ext, a0) == reference_quadratic_root(ext, a0), a0
        # x divides x^2 + a1 x, so a zero constant has no root
        with pytest.raises(ConstructionError):
            find_quadratic_root(ext, base.zero())
        with pytest.raises(ConstructionError):
            reference_quadratic_root(ext, base.zero())
