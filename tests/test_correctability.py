import random

import pytest

from hierasure import (
    BoundedFamily,
    FullFamily,
    ParameterError,
    apply_erasure,
    code_from_rows,
    decode,
    enumerate_family,
    find_quadratic_root,
    gabidulin_code,
    is_correcting,
    kernel_basis,
    length2_code,
    maximal_patterns,
    pattern_correctable,
    pattern_system,
    patterns_correctable,
    trace_code,
    vontobel_udms,
)
from hierasure import correctability
from hierasure.patterns import sorted_trie
import element_linalg
from semantic import all_flat_codewords, semantic_correctable
from towers import LONG, long_code, tower


def bad_ones_code(ext):
    # H = (1, 1) decoded over the mirrored basis (1, b): pattern (1,1) hides (1,1)
    root = find_quadratic_root(ext)
    from hierasure import b_symmetric_basis

    omega = b_symmetric_basis(ext, root)
    return code_from_rows(ext, [[ext.one(), ext.one()]], omega, FullFamily(ext.alpha, ext.alpha, 2))


class TestPatternSystem:
    def test_zero_pattern_is_vacuous(self):
        code = length2_code(tower(2, 1, 2))
        system = pattern_system(code, (0, 0))
        assert system.labels == ()
        assert pattern_correctable(code, (0, 0))

    def test_length2_full_rank_pair(self):
        code = length2_code(tower(2, 1, 2))
        system = pattern_system(code, (1, 1))
        assert len(system.labels) == 2
        assert len(system.matrix) == 2  # alpha * r rows
        assert element_linalg.rank(system.matrix, code.ext.base) == 2

    def test_zero_check_matrix_never_full_rank(self):
        ext = tower(2, 1, 2)
        code = code_from_rows(ext, [[ext.zero(), ext.zero()]], ext.polynomial_basis())
        assert not pattern_correctable(code, (1, 0))
        assert pattern_correctable(code, (0, 0))

    def test_labels_index_erased_coordinates(self):
        code = length2_code(tower(2, 1, 4))
        system = pattern_system(code, (3, 1))
        assert system.labels == ((0, 0), (0, 1), (0, 2), (1, 0))


class TestIsCorrecting:
    def test_length2_succeeds(self):
        code = length2_code(tower(2, 1, 2))
        assert is_correcting(code, FullFamily(2, 2, 2)).correcting

    def test_all_ones_check_fails_with_witness(self):
        ext = tower(2, 1, 2)
        code = bad_ones_code(ext)
        report = is_correcting(code, FullFamily(2, 2, 2))
        assert not report.correcting
        assert report.pattern == (1, 1)
        w = report.witness
        assert any(bool(x) for x in w)
        # witness is a codeword: H w = 0
        assert not (w[0] + w[1])
        # witness is invisible under the pattern
        for sym, ti in zip(w, report.pattern):
            coords = code.omega.coordinates(sym)
            assert all(not c for c in coords[ti:])

    def test_zero_pattern_family(self):
        ext = tower(2, 1, 2)
        code = bad_ones_code(ext)
        assert is_correcting(code, FullFamily(2, 0, 2)).correcting

    def test_all_patterns_flag_agrees(self):
        code = length2_code(tower(3, 1, 2))
        assert is_correcting(code, code.claim, all_patterns=True).correcting

    def test_monotone_failure_above_counterexample(self):
        ext = tower(2, 1, 2)
        code = bad_ones_code(ext)
        # every pattern dominating (1,1) must also fail
        for t in ((1, 1), (2, 1), (1, 2), (2, 2)):
            assert not pattern_correctable(code, t)

    def test_family_length_guard(self):
        code = length2_code(tower(2, 1, 2))
        with pytest.raises(ParameterError):
            is_correcting(code, FullFamily(2, 2, 3))

    @pytest.mark.parametrize("t", [(-1, 0), (3, 0)])
    def test_pattern_entry_range(self, t):
        code = length2_code(tower(2, 1, 2))
        with pytest.raises(ParameterError, match=r"entries must lie in \[0, alpha=2\]"):
            pattern_correctable(code, t)

    def test_code_longer_than_the_recursion_limit(self):
        # the walk descends one level per symbol on an explicit stack, so a
        # trie 1,100 levels deep is checked and refuted like a short one
        code = long_code()
        assert code.n == LONG and is_correcting(code, code.claim).correcting
        # one all-ones row: two erased first coordinates cancel, and the
        # second maximal pattern of full:2 in lex order erases the last two
        report = is_correcting(code, FullFamily(2, 2, LONG))
        assert report.pattern == (0,) * (LONG - 2) + (1, 1)
        assert [i for i, x in enumerate(report.witness) if x] == [LONG - 2, LONG - 1]


class TestPatternList:
    def test_long_code_reads_each_prefix_once(self, monkeypatch):
        # the list's trie splits index ranges of its sorted distinct
        # patterns, so one walk asks for each distinct prefix's children once
        code = long_code()
        last, first, pair = ((0,) * (LONG - 1) + (1,), (1,) + (0,) * (LONG - 1), (0,) * (LONG - 2) + (1, 1))
        pats = [last, first, pair, first]
        calls = []

        def counted(patterns):
            children, root = sorted_trie(patterns)
            return (lambda i, node: calls.append((i, node)) or children(i, node)), root

        monkeypatch.setattr(correctability, "sorted_trie", counted)
        got = patterns_correctable(code, pats)
        prefixes = {t[:i] for t in pats for i in range(LONG)}
        assert len(calls) == len(set(calls)) == len(prefixes)
        assert got == [pattern_correctable(code, t) for t in pats] == [True, True, False, True]


class TestSemanticAgreement:
    # the expanded-rank verdict must match brute-force collision counting
    def cases(self):
        yield length2_code(tower(2, 1, 2))
        yield length2_code(tower(3, 1, 2))
        yield bad_ones_code(tower(2, 1, 2))
        ext = tower(2, 1, 2)
        u = vontobel_udms(3, 2, 2, ext.base)
        yield trace_code(u, ext.polynomial_basis())
        yield gabidulin_code(3, 1, tower(2, 1, 3))

    def test_every_pattern_agrees(self):
        for code in self.cases():
            flats = all_flat_codewords(code)
            alpha, e = code.ext.alpha, code.ext.base.e
            fam = code.claim
            for t in enumerate_family(fam):
                assert pattern_correctable(code, t) == semantic_correctable(
                    flats, t, alpha, e
                ), (code.provenance, t)


class TestDecodeDichotomy:
    def test_honest_erasures_never_inconsistent(self):
        # random codes, random codewords, random patterns: an honest erasure
        # decodes back exactly when the pattern is correctable, and is
        # reported ambiguous exactly otherwise
        rng = random.Random(77)
        for p, e, alpha, n, r in ((2, 1, 2, 3, 1), (3, 1, 2, 2, 1), (2, 2, 2, 3, 2), (5, 1, 1, 3, 1)):
            ext = tower(p, e, alpha)
            omega = ext.polynomial_basis()
            for _ in range(6):
                rows = [
                    [ext.from_index(rng.randrange(ext.order)) for _ in range(n)]
                    for _ in range(r)
                ]
                code = code_from_rows(ext, rows, omega)
                kb = kernel_basis(code)
                for _ in range(6):
                    word = [ext.zero()] * n
                    for g in kb:
                        x = ext.from_index(rng.randrange(ext.order))
                        word = [w + x * gi for w, gi in zip(word, g)]
                    word = tuple(word)
                    t = tuple(rng.randrange(alpha + 1) for _ in range(n))
                    result = decode(code, apply_erasure(word, t, omega))
                    if pattern_correctable(code, t):
                        assert result.status == "decoded"
                        assert result.codeword == word
                    else:
                        assert result.status == "ambiguous"
                        assert result.solution_space_dim > 0


class TestKernelBasis:
    def test_full_rank_square_has_empty_kernel(self):
        ext = tower(2, 1, 2)
        one, zero = ext.one(), ext.zero()
        code = code_from_rows(ext, [[one, zero], [zero, one]], ext.polynomial_basis())
        assert kernel_basis(code) == []

    def test_length2_kernel_shape(self):
        ext = tower(2, 1, 2)
        code = length2_code(ext)
        kb = kernel_basis(code)
        assert len(kb) == 1
        c1, c2 = kb[0]
        b = code.H[0][1]
        assert c1 == -(b * c2)
        assert c2

    def test_rank_nullity(self):
        rng = random.Random(9)
        ext = tower(3, 1, 2)
        for _ in range(10):
            rows = [
                [ext.from_index(rng.randrange(ext.order)) for _ in range(4)]
                for _ in range(2)
            ]
            code = code_from_rows(ext, rows, ext.polynomial_basis())
            assert len(kernel_basis(code)) == 4 - code.rank
            for v in kernel_basis(code):
                assert all(not x for x in element_linalg.mat_vec([list(r) for r in rows], list(v), ext))


class TestDecode:
    def test_length2_round_trip(self):
        ext = tower(2, 1, 2)
        code = length2_code(ext)
        b = code.H[0][1]
        word = (b, ext.one())
        # membership: 1*b + b*1 = 0 in characteristic 2
        assert not (code.H[0][0] * word[0] + code.H[0][1] * word[1])
        received = apply_erasure(word, (1, 1), code.omega)
        result = decode(code, received)
        assert result.status == "decoded"
        assert result.codeword == word

    def test_zero_pattern_checks_membership(self):
        ext = tower(2, 1, 2)
        code = length2_code(ext)
        b = code.H[0][1]
        word = (b, ext.one())
        rw = apply_erasure(word, (0, 0), code.omega)
        assert decode(code, rw).codeword == word
        not_codeword = (ext.one(), ext.one())
        rw2 = apply_erasure(not_codeword, (0, 0), code.omega)
        assert decode(code, rw2).status == "inconsistent"

    def test_ambiguity_reports_dimension(self):
        ext = tower(2, 1, 2)
        code = bad_ones_code(ext)
        word = (ext.zero(), ext.zero())
        rw = apply_erasure(word, (1, 1), code.omega)
        result = decode(code, rw)
        assert result.status == "ambiguous"
        assert result.solution_space_dim == 1

    def test_corruption_detected_when_overdetermined(self):
        ext = tower(2, 1, 2)
        code = length2_code(ext)
        b = code.H[0][1]
        word = (b, ext.one())
        rw = apply_erasure(word, (1, 0), code.omega)
        known = [list(s) for s in rw.known]
        known[1][0] = known[1][0] + ext.base.one()
        from hierasure import ReceivedWord

        tampered = ReceivedWord(rw.omega, rw.pattern, tuple(tuple(s) for s in known))
        assert decode(code, tampered).status == "inconsistent"

    def test_basis_mismatch_rejected(self):
        from hierasure import dual_basis

        ext = tower(2, 1, 2)
        code = length2_code(ext)
        other = dual_basis(code.omega)
        assert other != code.omega
        word = (ext.zero(), ext.zero())
        rw = apply_erasure(word, (1, 1), other)
        with pytest.raises(ParameterError):
            decode(code, rw)

    def test_round_trip_every_family_pattern(self):
        # dominated patterns give overdetermined systems; they must decode too
        rng = random.Random(8)
        code = length2_code(tower(3, 1, 2))
        kb = kernel_basis(code)
        for t in enumerate_family(code.claim):
            for _ in range(3):
                word = [code.ext.zero()] * code.n
                for g in kb:
                    x = code.ext.from_index(rng.randrange(code.ext.order))
                    word = [w + x * gi for w, gi in zip(word, g)]
                word = tuple(word)
                result = decode(code, apply_erasure(word, t, code.omega))
                assert result.status == "decoded" and result.codeword == word

    def test_round_trip_all_maximal_patterns(self):
        rng = random.Random(31)
        for code in (
            length2_code(tower(2, 1, 2)),
            length2_code(tower(2, 1, 4)),
            gabidulin_code(3, 1, tower(2, 1, 3)),
        ):
            kb = kernel_basis(code)
            for t in maximal_patterns(code.claim):
                for _ in range(5):
                    word = [code.ext.zero()] * code.n
                    for g in kb:
                        x = code.ext.from_index(rng.randrange(code.ext.order))
                        word = [w + x * gi for w, gi in zip(word, g)]
                    word = tuple(word)
                    result = decode(code, apply_erasure(word, t, code.omega))
                    assert result.status == "decoded" and result.codeword == word
