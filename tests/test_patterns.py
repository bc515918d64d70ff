import itertools
from operator import itemgetter

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
    modp,
    parse_family,
)
from hierasure.patterns import _leaves, _members_trie, family_trie, sorted_trie
from reference import reference_contains, reference_prefix_echelons, reference_rule_trie
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

    def test_equal_families_share_one_members_trie(self):
        first, twin = BalancedFamily(8, 5), BalancedFamily(8, 5)
        assert first is not twin
        assert _members_trie(first) is _members_trie(twin)
        assert _members_trie(first) is not _members_trie(PowerFamily(8, 5))
        assert family_contains(twin, (4, 4, 0, 0, 0)) and not family_contains(first, (4, 4, 4, 0, 0))

    @pytest.mark.parametrize(
        "fam,t,member",
        [
            (FullFamily(2, 1, 4), (1, 0, 0, 1), False),
            (FullFamily(2, 1, 4), (1, 0, 0, 0), True),
            (FullFamily(2, 1, 4), (0, 1, 0, -1), False),
            (FullFamily(2, 0, 3), (0, 0, 1), False),
            (FullFamily(3, 4, 3), (3, 1, 1), False),
            (FullFamily(3, 4, 3), (3, 1, 0), True),
            (PowerFamily(4, 4), (2, 2, 0, 1), False),
            (PowerFamily(4, 4), (2, 2, 0, 0), True),
            (PowerFamily(4, 3), (4, 0, 4), False),
        ],
    )
    def test_nonzero_entry_after_a_spent_budget(self, fam, t, member):
        # the members' trie ends the path where the budget is spent, so
        # the entries after it are read as zeros or the pattern is refused
        assert family_contains(fam, t) is member
        assert reference_contains(fam, t) is member

    # alpha = 8 stops at n = 3: n = 4 alone is 571,000 membership calls
    @pytest.mark.parametrize(
        "alpha,n", [(alpha, n) for alpha in (1, 2, 4, 8) for n in range(1, 6) if alpha < 8 or n <= 3]
    )
    def test_matches_the_definitions(self, alpha, n):
        # the members' trie against each family's definition, on every
        # tuple with entries in [-1, alpha + 1]: every budget and radius
        fams = [FullFamily(alpha, m, n) for m in range(n * alpha + 1)]
        fams += [BalancedFamily(alpha, n), PowerFamily(alpha, n)]
        fams += [BoundedFamily(r, n) for r in range(min(alpha + 1, n))]
        for t in itertools.product(range(-1, alpha + 2), repeat=n):
            for fam in fams:
                assert family_contains(fam, t) == reference_contains(fam, t), (fam, t)


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


def rule_tries(n, alpha):
    """(family, all_patterns) of every rule-based trie on n symbols: the
    full maxima and members for every budget up to n * alpha, and the
    power and balanced maxima and members (alpha a power of two)."""
    for m in range(n * alpha + 1):
        yield FullFamily(alpha, m, n), False
        yield FullFamily(alpha, m, n), True
    if not alpha & (alpha - 1):
        for all_patterns in (False, True):
            yield PowerFamily(alpha, n), all_patterns
            yield BalancedFamily(alpha, n), all_patterns


def every_trie(n, alpha):
    """(family, all_patterns) of every family on n symbols in both modes:
    full for every budget up to n * alpha, balanced and power (alpha a
    power of two) and bounded for every radius up to min(alpha, n - 1)."""
    fams = [FullFamily(alpha, m, n) for m in range(n * alpha + 1)]
    if not alpha & (alpha - 1):
        fams += [BalancedFamily(alpha, n), PowerFamily(alpha, n)]
    fams += [BoundedFamily(r, n) for r in range(min(alpha + 1, n))]
    for fam in fams:
        yield fam, False
        yield fam, True


def is_leaf(fam, all_patterns, t):
    """t is a member of the family, and without ``all_patterns`` a maximal
    one: nonzero for power, whose maxima are its nonzero members, and for
    the downward-closed families one with no entry that can grow by one."""
    if not reference_contains(fam, t):
        return False
    if all_patterns:
        return True
    if isinstance(fam, PowerFamily):
        return any(t)
    return not any(reference_contains(fam, t[:j] + (t[j] + 1,) + t[j + 1 :]) for j in range(len(t)))


class TestTabledTries:
    """``family_trie`` tables each (level, node) child list as a tuple,
    once per trie, for every family and mode; ``reference_rule_trie`` is the
    generator per call it replaced for the rule tries, and it derives the
    end marker None itself: a spent budget, or no position left to fill.
    Children must agree at every node, markers included."""

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_children_match_the_generators_at_every_node(self, n, alpha):
        markers = 0
        for fam, all_patterns in rule_tries(n, alpha):
            want, root = reference_rule_trie(fam, all_patterns)
            got, got_root = family_trie(fam, all_patterns)
            assert got_root == root
            # the trie's distinct (level, node) pairs, breadth first; an
            # end marker has no node below it
            level = {root}
            for i in range(n):
                for node in level:
                    kids = tuple(want(i, node))
                    assert got(i, node) == kids
                    assert got(i, node) == kids  # a tabled tuple, read again
                    markers += sum(child is None for _, child in kids)
                level = {child for node in level for _, child in want(i, node) if child is not None}
        assert markers  # full:0 alone ends at its root

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_node_has_a_leaf_and_one_tuple(self, n, alpha):
        for fam, all_patterns in every_trie(n, alpha):
            children, root = family_trie(fam, all_patterns)
            level = {root: ()}  # each node reached, with a prefix that reaches it
            for i in range(n):
                below_level = {}
                for node, prefix in level.items():
                    kids = children(i, node)
                    assert type(kids) is tuple and kids, (fam, all_patterns, prefix)
                    assert children(i, node) is kids
                    # the node's first leaf, down its first child at every
                    # level until an end marker, then zeros
                    leaf, below = prefix, node
                    for j in range(i, n):
                        v, below = children(j, below)[0]
                        leaf += (v,)
                        if below is None:
                            break
                    leaf += (0,) * (n - len(leaf))
                    assert is_leaf(fam, all_patterns, leaf), (fam, all_patterns, leaf)
                    for v, child in kids:
                        if child is None:  # every deeper entry is 0
                            leaf = prefix + (v,) + (0,) * (n - i - 1)
                            assert is_leaf(fam, all_patterns, leaf), (fam, all_patterns, leaf)
                        else:
                            below_level[child] = prefix + (v,)
                level = below_level


class TestChildrenIterables:
    """A trie's children are a tuple, which a loop taken up again starts
    from its first child: tabled, the node itself, or made afresh from an
    index range.  ``_leaves`` and ``modp.walk`` must read each; each is read
    one leaf past the expected count, so a loop that restarts fails instead
    of hanging."""

    FAM = FullFamily(3, 4, 4)
    # its maxima, entries at most 3 and total 4, in lex order, read without the tries
    LEAVES = [t for t in itertools.product(range(4), repeat=4) if sum(t) == 4]

    def tries(self):
        def nested(patterns, i):
            # a node is the tuple of its children: the same object on every call
            if i == self.FAM.n:
                return ()
            groups = itertools.groupby(patterns, itemgetter(i))
            return tuple((v, nested(list(group), i + 1)) for v, group in groups)

        yield "tabled", family_trie(self.FAM)
        yield "nested tuples", (lambda i, node: node, nested(self.LEAVES, 0))
        yield "index ranges", sorted_trie(reversed(self.LEAVES))

    def test_leaves(self):
        want = self.LEAVES
        for name, (children, root) in self.tries():
            got = list(itertools.islice(_leaves(children, root, self.FAM.n), len(want) + 1))
            assert got == want, name

    def test_walk(self):
        # block i's vectors are e_i, 2 * e_i and e_i: a pattern is
        # dependent iff some entry exceeds 1, and the walk yields those
        n = self.FAM.n
        lay = modp.layout(3, n)
        digits = [[[c * (j == i) for j in range(n)] for c in (1, 2, 1)] for i in range(n)]
        blocks = [[lay.pack(v) for v in block] for block in digits]
        want = [t for t, ech in reference_prefix_echelons(digits, self.LEAVES, 1, 3) if ech is None]
        assert want == [t for t in self.LEAVES if max(t) > 1]
        for name, (children, root) in self.tries():
            got = list(itertools.islice(modp.walk(blocks, children, root, 1, lay), len(want) + 1))
            assert got == want, name


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

    @pytest.mark.parametrize("text", ["balanced:3", "power:x", "Balanced: 1", "power:"])
    def test_rejects_an_argument_to_a_family_that_takes_none(self, text):
        with pytest.raises(ParameterError, match="takes no argument"):
            parse_family(text, 4, 4)
