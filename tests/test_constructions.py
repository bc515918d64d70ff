import random
import warnings

import pytest

from hierasure import (
    BalancedFamily,
    BoundedFamily,
    ConstructionError,
    FullFamily,
    ParameterError,
    PowerFamily,
    b_symmetric_basis,
    balanced_code,
    find_quadratic_root,
    fold_halves,
    gabidulin_code,
    greedy_gv_code,
    is_basis,
    is_correcting,
    kernel_basis,
    length2_code,
    power_code,
    recover_gv_witness,
    square_trace_code,
    square_trace_udms,
    subfield_basis,
    subfield_chain_basis,
    trace_code,
    udms_to_check_vector,
    verify_udm,
    vontobel_udms,
)
from hierasure.fields import in_subfield
import element_linalg
from reference import reference_subfield_members
from towers import tower


def _prime_power_split(q):
    p = 2
    while q % p:
        p += 1
    e = 0
    while q > 1:
        q //= p
        e += 1
    return p, e


class TestBSymmetricBasis:
    @pytest.mark.parametrize(
        "p,e,alpha",
        [
            (2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2),
            (2, 1, 4),   # one doubling step
            (2, 1, 6),   # odd-multiple base case, no doubling
            (2, 1, 8),   # two doubling steps
            (2, 1, 12),  # doubling on top of an odd-multiple base
        ],
    )
    def test_mirror_relation_and_rank(self, p, e, alpha):
        ext = tower(p, e, alpha)
        root = find_quadratic_root(ext)
        omega = b_symmetric_basis(ext, root)
        assert is_basis(ext, omega.elements)
        for i in range(alpha // 2):
            assert omega.elements[alpha - i - 1] == root.b * omega.elements[i]

    def test_alpha2_base_case(self):
        ext = tower(2, 1, 2)
        root = find_quadratic_root(ext)
        omega = b_symmetric_basis(ext, root)
        assert omega.elements == (ext.one(), root.b)

    def test_odd_alpha_rejected(self):
        ext = tower(2, 1, 3)
        root_ext = tower(2, 1, 2)
        with pytest.raises(ParameterError):
            b_symmetric_basis(ext, find_quadratic_root(root_ext))

    @pytest.mark.parametrize("p,alpha", [(2, 2), (2, 4), (3, 2)])
    def test_scaled_prefix_spans_mirror_suffix(self, p, alpha):
        # span(b*w_1..b*w_t) equals span(w_alpha..w_{alpha-t+1}) for every t
        ext = tower(p, 1, alpha)
        root = find_quadratic_root(ext)
        omega = b_symmetric_basis(ext, root)
        base = ext.base
        for t in range(1, alpha + 1):
            left = [omega.coordinates(root.b * omega.elements[i]) for i in range(t)]
            right = [omega.coordinates(omega.elements[alpha - 1 - j]) for j in range(t)]
            lrank = element_linalg.rank([list(r) for r in left], base)
            rrank = element_linalg.rank([list(r) for r in right], base)
            both = element_linalg.rank([list(r) for r in left + right], base)
            assert lrank == rrank == both == t


class TestLength2:
    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 4)])
    def test_corrects_its_claim(self, p, e, alpha):
        code = length2_code(tower(p, e, alpha))
        assert code.dim == 1
        assert is_correcting(code, code.claim).correcting

    def test_full_symbol_erasure_pattern(self):
        code = length2_code(tower(2, 1, 2))
        from hierasure import pattern_correctable

        assert pattern_correctable(code, (2, 0))
        assert pattern_correctable(code, (0, 2))
        assert pattern_correctable(code, (1, 1))


class TestTraceCode:
    def test_example_grid_case(self):
        ext = tower(2, 1, 2)
        u = vontobel_udms(3, 2, 2, ext.base)
        code = trace_code(u, ext.polynomial_basis())
        assert code.dim >= 1
        assert is_correcting(code, code.claim).correcting

    def test_m1_alpha1_is_parity_like(self):
        ext = tower(3, 1, 1)
        u = vontobel_udms(3, 1, 1, ext.base)
        code = trace_code(u, ext.polynomial_basis())
        assert code.dim >= 2
        assert is_correcting(code, FullFamily(1, 1, 3)).correcting

    def test_dimension_bound(self):
        for p, n, alpha, m in ((3, 4, 2, 3), (5, 4, 2, 4), (2, 3, 2, 4)):
            ext = tower(p, 1, alpha)
            u = vontobel_udms(n, alpha, m, ext.base)
            code = trace_code(u, ext.polynomial_basis())
            assert code.dim >= n - m
            assert is_correcting(code, code.claim).correcting

    def test_rejects_bad_matrix_set(self):
        from hierasure import UdmSet

        ext = tower(2, 1, 2)
        f = ext.base
        one, zero = f.one(), f.zero()
        ident = ((one, zero), (zero, one))
        bad = UdmSet(f, 2, 2, (ident, ident))
        with pytest.raises(ParameterError):
            trace_code(bad, ext.polynomial_basis())

    def test_vontobel_set_is_walked_once(self, monkeypatch):
        # vontobel_udms verifies its set, and trace_code reads that verdict
        from hierasure import modp

        walks = []
        real = modp.walk
        monkeypatch.setattr(modp, "walk", lambda *args: walks.append(args) or real(*args))
        ext = tower(7, 1, 4)
        u = vontobel_udms(8, 4, 5, ext.base)
        assert len(walks) == 1
        code = trace_code(u, ext.polynomial_basis())
        assert len(walks) == 1 and verify_udm(u).ok and code.dim >= 3

    def test_rejects_a_foreign_set_built_from_a_verified_one(self):
        # the verdict is kept per set: a new set over the same matrices,
        # one row changed, is walked again and refused
        from hierasure import UdmSet

        ext = tower(3, 1, 2)
        good = vontobel_udms(4, 2, 3, ext.base)
        assert verify_udm(good).ok
        mats = list(good.matrices)
        mats[3] = (mats[2][0],) + mats[3][1:]
        bad = UdmSet(good.field, good.alpha, good.m, tuple(mats))
        assert not verify_udm(bad).ok
        with pytest.raises(ParameterError):
            trace_code(bad, ext.polynomial_basis())


class TestSquareTrace:
    @pytest.mark.parametrize("p", [2, 3])
    def test_corollary_case(self, p):
        ext = tower(p, 1, 2)
        code = square_trace_code(ext)
        assert code.dim >= 1
        assert is_correcting(code, FullFamily(2, 2, 2)).correcting

    @pytest.mark.parametrize("p", [2, 3])
    def test_eigen_relations(self, p):
        ext = tower(p, 1, 2)
        root = find_quadratic_root(ext)
        u = square_trace_udms(ext, root, 2)
        mu = b_symmetric_basis(ext, root)
        # first matrix fixes mu, second scales it by the quadratic root
        assert udms_to_check_vector(u, mu) == (ext.one(), root.b)
        assert verify_udm(u).ok

    def test_alpha4_instance(self):
        # needs q >= n-1 = 3
        ext = tower(5, 1, 4)
        code = square_trace_code(ext)
        assert code.dim >= 1
        assert is_correcting(code, code.claim).correcting

    def test_norm_minus_one_makes_transposed_relation_hold(self):
        # the rank drop comes from the transposed mirror relation, which the
        # pinned constant term buys at every even alpha
        from hierasure import quadratic_root_with_constant

        for p, alpha in ((5, 4), (3, 4), (2, 2), (7, 2)):
            ext = tower(p, 1, alpha)
            root = quadratic_root_with_constant(ext, -ext.base.one())
            u = square_trace_udms(ext, root, alpha)
            mu = b_symmetric_basis(ext, root)
            a2t = list(zip(*u.matrices[1]))
            for r in range(alpha):
                acc = ext.zero()
                for entry, w in zip(a2t[r], mu.elements):
                    acc = acc + ext.lift(entry) * w
                assert acc == root.b * mu.elements[r]

    def test_odd_alpha_rejected(self):
        with pytest.raises(ParameterError):
            square_trace_code(tower(2, 1, 3))


class TestSubfieldChain:
    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 2), (3, 1, 4), (5, 1, 4), (2, 1, 8)])
    def test_prefixes_span_subfields(self, p, e, alpha):
        ext = tower(p, e, alpha)
        chain = subfield_chain_basis(ext)
        beta = alpha.bit_length() - 1
        assert len(chain.steps) == beta
        assert is_basis(ext, chain.omega.elements)
        base = ext.base
        for i in range(beta + 1):
            d = alpha >> i
            prefix = chain.omega.elements[:d]
            # inside the subfield, and spanning it
            for w in prefix:
                assert in_subfield(ext, w, d)
            rows = [list(ext.polynomial_basis().coordinates(w)) for w in prefix]
            assert element_linalg.rank(rows, base) == d

    def test_steps_generate_each_doubling(self):
        ext = tower(3, 1, 4)
        chain = subfield_chain_basis(ext)
        for i, s in enumerate(chain.steps, start=1):
            assert in_subfield(ext, s, 1 << i)
            assert not in_subfield(ext, s, 1 << (i - 1))

    def test_kronecker_structure(self):
        ext = tower(5, 1, 4)
        chain = subfield_chain_basis(ext)
        s1, s2 = chain.steps
        assert chain.omega.elements == (ext.one(), s1, s2, s2 * s1)

    def test_single_level(self):
        ext = tower(2, 1, 1)
        chain = subfield_chain_basis(ext)
        assert chain.steps == ()
        assert chain.omega.elements == (ext.one(),)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ParameterError):
            subfield_chain_basis(tower(2, 1, 3))


class TestFold:
    def test_two_row_vandermonde(self):
        ext = tower(5, 1, 2)
        chain = subfield_chain_basis(ext)
        b = chain.steps[0]
        nodes = [ext.lift(ext.base.from_index(k)) for k in (1, 2, 3)]
        matrix = [[ext.one()] * 3, nodes]
        folded = fold_halves(matrix, b)
        assert folded == [[ext.one() + b * v for v in nodes]]

    def test_zero_multiplier_keeps_upper_half(self):
        ext = tower(2, 1, 2)
        top = [ext.one(), ext.zero()]
        bottom = [ext.one(), ext.one()]
        assert fold_halves([top, bottom], ext.zero()) == [top]

    def test_repeated_fold_reaches_single_row(self):
        ext = tower(3, 1, 4)
        chain = subfield_chain_basis(ext)
        matrix = [[ext.lift(v) ** i for v in ext.base.elements()] for i in range(4)]
        for b in chain.steps:
            matrix = fold_halves(matrix, b)
        assert len(matrix) == 1

    def test_odd_rows_rejected(self):
        ext = tower(2, 1, 2)
        with pytest.raises(ParameterError):
            fold_halves([[ext.one()]], ext.one())


class TestBalancedCode:
    def test_q5_exhaustive(self):
        ext = tower(5, 1, 4)
        code = balanced_code(4, ext)
        assert code.dim == 3
        assert is_correcting(code, BalancedFamily(4, 4), all_patterns=True).correcting

    def test_product_form(self):
        ext = tower(5, 1, 4)
        code = balanced_code(4, ext)
        chain = subfield_chain_basis(ext)
        for j, coeffs in enumerate(code.provenance["nu"]):
            v = ext.lift(ext.base.element(tuple(coeffs)))
            expected = ext.one()
            for i, s in enumerate(chain.steps, start=1):
                expected = expected * (ext.one() + s * v ** (ext.alpha >> i))
            assert code.H[0][j] == expected

    def test_alpha1_is_plain_parity(self):
        ext = tower(3, 1, 1)
        with pytest.warns(UserWarning) as record:
            code = balanced_code(3, ext)  # q = n, so the zero node participates
        assert [str(w.message) for w in record] == ["field has exactly n elements; the zero node participates"]
        assert [e.coeffs for e in code.H[0]] == [(1,)] * 3
        assert is_correcting(code, BalancedFamily(1, 3)).correcting

    def test_field_exactly_n_warns_and_works(self):
        ext = tower(2, 1, 2)
        with pytest.warns(UserWarning) as record:
            code = balanced_code(2, ext)
        assert [str(w.message) for w in record] == ["field has exactly n elements; the zero node participates"]
        assert is_correcting(code, code.claim, all_patterns=True).correcting

    def test_field_too_small(self):
        with pytest.raises(ParameterError):
            balanced_code(4, tower(3, 1, 2))

    def test_warnings_name_their_caller(self):
        # each library warning points at the line that called the public
        # function, not at constructions.py, so its location is stable
        ext = tower(5, 1, 2)
        with pytest.warns(UserWarning, match="zero node supplied") as record:
            balanced_code(2, ext, [ext.base.zero(), ext.base.one()])
        assert record[0].filename == __file__
        # the default nodes take the zero node too, but the caller supplied
        # none, so only the field-size warning shows
        with pytest.warns(UserWarning) as record:
            balanced_code(5, ext)
        assert [str(w.message) for w in record] == ["field has exactly n elements; the zero node participates"]
        assert record[0].filename == __file__
        with pytest.warns(UserWarning, match="existence threshold") as record:
            greedy_gv_code(3, 2, 1, tower(3, 1, 2), seed=0)
        assert record[0].filename == __file__

    def test_duplicate_nodes_rejected(self):
        ext = tower(5, 1, 2)
        one = ext.base.one()
        with pytest.raises(ParameterError):
            balanced_code(2, ext, [one, one])

    def test_deeper_tower_over_nonprime_base(self):
        # q=9, alpha=8: the base field is not prime, so every extension
        # product is a packed combination with power multiples rather than
        # the plain int one, end to end with a three-level chain
        ext = tower(3, 2, 8)
        assert ext._mulmod is None
        code = balanced_code(3, ext)
        assert code.dim == 2
        assert is_correcting(code, BalancedFamily(8, 3)).correcting

    def test_every_two_power_subset_independent_over_subfield(self):
        # independence of check entries over each chain subfield, by expanded rank
        import itertools

        ext = tower(5, 1, 4)
        code = balanced_code(4, ext)
        h = code.H[0]
        base = ext.base
        pb = ext.polynomial_basis()
        beta, n = 2, 4
        for i in range(1, min(beta, n.bit_length() - 1) + 1):
            sub = subfield_basis(ext, ext.alpha >> i)
            for subset in itertools.combinations(range(n), 1 << i):
                vectors = []
                for j in subset:
                    for u in sub:
                        vectors.append(list(pb.coordinates(h[j] * u)))
                assert element_linalg.rank(vectors, base) == len(vectors)

    def test_intermediate_folds_stay_generalized_vandermonde(self):
        ext = tower(5, 1, 4)
        chain = subfield_chain_basis(ext)
        nodes = [ext.lift(ext.base.from_index(k)) for k in (1, 2, 3, 4)]
        matrix = [[v**i for v in nodes] for i in range(4)]
        level = 0
        while len(matrix) >= 2:
            witness = recover_gv_witness(matrix)
            assert witness is not None
            assert witness.nu == tuple(nodes)
            assert all(bool(d) for d in witness.d)
            # entries stay inside the subfield the fold has reached
            for row in matrix:
                for entry in row:
                    assert in_subfield(ext, entry, 1 << level)
            matrix = fold_halves(matrix, chain.steps[level])
            level += 1


class TestPowerCode:
    def test_q5_n2_exhaustive(self):
        ext = tower(5, 1, 4)
        code = power_code(2, ext)
        assert is_correcting(code, PowerFamily(4, 2), all_patterns=True).correcting

    def test_collision_rejected_naming_pair(self):
        ext = tower(5, 1, 4)
        two, three = ext.base.from_index(2), ext.base.from_index(3)
        with pytest.raises(ParameterError) as exc:
            power_code(2, ext, [two, three])
        assert "0" in str(exc.value) and "1" in str(exc.value)

    def test_zero_node_rejected(self):
        ext = tower(5, 1, 4)
        with pytest.raises(ParameterError):
            power_code(2, ext, [ext.base.zero(), ext.base.one()])

    def test_subgroup_size_must_divide(self):
        # alpha/2 = 2 does not divide q-1 = 2^2-1
        with pytest.raises(ParameterError):
            power_code(2, tower(2, 2, 4))

    def test_default_nodes_are_coset_representatives(self):
        ext = tower(13, 1, 2)
        code = power_code(4, ext)
        nodes = [ext.base.element(tuple(c)) for c in code.provenance["nu"]]
        powers = [(v ** (ext.alpha // 2)).coeffs for v in nodes]
        assert len(set(powers)) == len(powers)

    def test_mixed_level_support_exhaustive_q13(self):
        # the acceptance pattern (2,1,1,0): one symbol confined to the
        # quadratic subfield, two to the base; brute-force the whole
        # 169*13*13 solution space of the check equation
        ext = tower(13, 1, 4)
        code = power_code(4, ext)
        h = code.H[0]
        quad = reference_subfield_members(ext, 2)
        base_lifted = [ext.lift(v) for v in ext.base.elements()]
        zero = ext.zero()
        nontrivial = 0
        for c1 in quad:
            p1 = h[0] * c1
            for c2 in base_lifted:
                p2 = p1 + h[1] * c2
                for c3 in base_lifted:
                    if p2 + h[2] * c3 == zero:
                        if c1 or c2 or c3:
                            nontrivial += 1
        assert nontrivial == 0

    def test_only_trivial_solution_on_power_supports(self):
        # direct exhaustive version of the mixed-subfield independence condition
        from hierasure import enumerate_family

        ext = tower(5, 1, 4)
        code = power_code(2, ext)
        h = code.H[0]
        for t in enumerate_family(PowerFamily(4, 2)):
            if not any(t):
                continue
            supports = [
                (j, reference_subfield_members(ext, tj)) for j, tj in enumerate(t) if tj
            ]
            if len(supports) == 1:
                j, members = supports[0]
                for c in members:
                    if c and not (h[j] * c):
                        pytest.fail(f"nonzero annihilator at {t}")
            else:
                (j1, m1), (j2, m2) = supports
                for c1 in m1:
                    for c2 in m2:
                        if (c1 or c2) and not (h[j1] * c1 + h[j2] * c2):
                            pytest.fail(f"nonzero annihilator at {t}")


class TestGabidulin:
    def test_dim2_instance_exhaustive(self):
        code = gabidulin_code(3, 1, tower(2, 1, 3))
        assert code.dim == 2
        assert is_correcting(code, BoundedFamily(1, 3), all_patterns=True).correcting

    def test_r0_full_space(self):
        code = gabidulin_code(2, 0, tower(2, 1, 2))
        assert code.dim == 2
        assert is_correcting(code, BoundedFamily(0, 2)).correcting

    def test_identity_map_evaluation_is_codeword(self):
        ext = tower(2, 1, 4)
        code = gabidulin_code(3, 1, ext)
        word = code.omega.elements[:3]
        for row in code.H:
            acc = ext.zero()
            for hj, cj in zip(row, word):
                acc = acc + hj * cj
            assert not acc
        assert all(bool(c) for c in word)

    def test_custom_basis(self):
        ext = tower(2, 1, 4)
        root = find_quadratic_root(ext)
        omega = b_symmetric_basis(ext, root)
        code = gabidulin_code(3, 2, ext, omega)
        assert is_correcting(code, code.claim, all_patterns=True).correcting

    def test_length_exceeding_alpha_rejected(self):
        with pytest.raises(ParameterError):
            gabidulin_code(4, 1, tower(2, 1, 3))


class TestGreedyGV:
    def test_n_equals_r_is_identity(self):
        ext = tower(5, 1, 2)
        code = greedy_gv_code(2, 2, 1, ext)
        assert code.dim == 0
        ident = element_linalg.identity(2, ext)
        assert [list(r) for r in code.H] == ident

    def test_threshold_scale_instance(self):
        ext = tower(5, 1, 2)
        code = greedy_gv_code(3, 2, 1, ext, seed=0)
        assert is_correcting(code, FullFamily(2, 1, 3)).correcting

    def test_seed_determinism(self):
        ext = tower(5, 1, 2)
        a = greedy_gv_code(3, 2, 1, ext, seed=5)
        b = greedy_gv_code(3, 2, 1, ext, seed=5)
        assert a.H == b.H

    def test_prefixes_stay_good(self):
        from hierasure import code_from_rows

        ext = tower(5, 1, 2)
        code = greedy_gv_code(3, 2, 1, ext, seed=1)
        for length in range(2, code.n + 1):
            prefix = [row[:length] for row in code.H]
            probe = code_from_rows(ext, prefix, code.omega, length=length)
            assert is_correcting(probe, FullFamily(2, 1, length)).correcting

    def test_below_threshold_warns(self):
        ext = tower(3, 1, 2)  # threshold for these parameters is q=5
        with pytest.warns(UserWarning):
            greedy_gv_code(3, 2, 1, ext, seed=0)

    def test_budget_exhaustion_reports_progress(self):
        ext = tower(13, 1, 4)
        with pytest.raises(ConstructionError):
            greedy_gv_code(3, 2, 1, ext, seed=0, budget=0)

    def test_structural_preconditions(self):
        ext = tower(5, 1, 2)
        with pytest.raises(ParameterError):
            greedy_gv_code(3, 2, 2, ext)  # m must stay below alpha*(r-1)
        with pytest.raises(ParameterError):
            greedy_gv_code(2, 3, 1, ext)

    def test_threshold_field_always_suffices(self):
        # wherever the bound names a field, the greedy build must succeed there
        from hierasure import gv_field_threshold

        for n, m, alpha, r in ((3, 1, 2, 2), (4, 2, 2, 3), (4, 1, 1, 3)):
            th = gv_field_threshold(n, m, alpha, r)
            p, e = _prime_power_split(th.q_min)
            code = greedy_gv_code(n, r, m, tower(p, e, alpha), seed=0)
            assert is_correcting(code, FullFamily(alpha, m, n)).correcting


class TestGVWitness:
    def test_recover_plain_vandermonde(self):
        ext = tower(5, 1, 2)
        nodes = [ext.lift(ext.base.from_index(k)) for k in (1, 2, 4)]
        matrix = [[v**i for v in nodes] for i in range(2)]
        witness = recover_gv_witness(matrix)
        assert witness.nu == tuple(nodes)
        assert witness.d == tuple(ext.one() for _ in nodes)

    def test_rejects_non_geometric(self):
        ext = tower(5, 1, 2)
        one = ext.one()
        matrix = [[one, one], [one + one, one], [one, one]]
        assert recover_gv_witness(matrix) is None

    def test_rejects_zero_scale(self):
        ext = tower(5, 1, 2)
        matrix = [[ext.zero(), ext.one()], [ext.one(), ext.one()]]
        assert recover_gv_witness(matrix) is None

    def test_needs_two_rows(self):
        ext = tower(5, 1, 2)
        with pytest.raises(ParameterError):
            recover_gv_witness([[ext.one()]])
