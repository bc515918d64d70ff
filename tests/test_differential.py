"""The prime-field kernel against the Element reference and the brute-force oracle.

Seeded grids of small towers, including base fields with e > 1, and random
parity checks with zero columns and dependent rows, so many codes fail
their family and the witness path runs.
"""

import gc
import random
import weakref

import pytest

from hierasure import (
    Element,
    FullFamily,
    InvalidBasisError,
    OrderedBasis,
    ReceivedWord,
    UdmSet,
    apply_erasure,
    code_from_rows,
    decode,
    enumerate_family,
    is_basis,
    is_correcting,
    kernel_basis,
    length2_code,
    pattern_correctable,
    pattern_system,
    udm,
    verify_udm,
    vontobel_udms,
)
from reference import (
    reference_combine,
    reference_coordinates,
    reference_decode,
    reference_is_basis,
    reference_is_correcting,
    reference_correctable,
    reference_system,
    reference_verify_udm,
)
from semantic import all_flat_codewords, semantic_correctable
from towers import field, tower

# (p, e, alpha): prime towers for p = 2, 3, 5, two towers over F_4, F_9,
# then F_8 with alpha = 2 and F_4 with alpha = 3 (appended, so the codes
# drawn for the earlier towers stay the same)
TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)]


def random_code(ext, n, r, rng, zero_col=False, dependent_row=False):
    rows = [[ext.from_index(rng.randrange(ext.order)) for _ in range(n)] for _ in range(r)]
    if zero_col:
        col = rng.randrange(n)
        for row in rows:
            row[col] = ext.zero()
    if dependent_row and r >= 2:
        c = ext.from_index(rng.randrange(ext.order))
        rows[-1] = [c * x for x in rows[0]]
    basis = ext.polynomial_basis() if rng.randrange(2) else _random_basis(ext, rng)
    return code_from_rows(ext, rows, basis)


def _random_basis(ext, rng):
    while True:
        elems = [ext.from_index(rng.randrange(1, ext.order)) for _ in range(ext.alpha)]
        if is_basis(ext, elems):
            return OrderedBasis(ext, elems)


def grid(seed, per_tower=6):
    """Seeded random codes over every tower in TOWERS, with their families."""
    rng = random.Random(seed)
    for p, e, alpha in TOWERS:
        ext = tower(p, e, alpha)
        for k in range(per_tower):
            n = rng.randrange(2, 4)
            r = rng.randrange(1, 3)
            code = random_code(ext, n, r, rng, zero_col=k % 2 == 1, dependent_row=k >= 2)
            m = rng.randrange(1, alpha * r + 1)
            yield code, FullFamily(alpha, m, n)


def random_codeword(code, rng, basis):
    ext = code.ext
    word = [ext.zero()] * code.n
    for g in basis:
        x = ext.from_index(rng.randrange(ext.order))
        word = [w + x * gi for w, gi in zip(word, g)]
    return tuple(word)


class TestOracle:
    def test_verdicts_match_reference_on_every_pattern(self):
        failing = 0
        for code, fam in grid(1):
            for t in enumerate_family(fam):
                got = pattern_correctable(code, t)
                assert got == reference_correctable(code, t), (code.ext, code.H, t)
                failing += not got
        assert failing > 0  # the grid exercises refutations, not only successes

    def test_verdicts_match_semantic_oracle(self):
        # brute force enumerates every codeword, so keep the codes tiny
        for code, fam in grid(2, per_tower=3):
            e = code.ext.base.e
            if code.ext.base.p ** (code.dim * code.ext.alpha * e) > 4096:
                continue
            flats = all_flat_codewords(code)
            for t in enumerate_family(fam):
                assert pattern_correctable(code, t) == semantic_correctable(
                    flats, t, code.ext.alpha, e
                ), (code.ext, code.H, t)

    def test_first_counterexample_and_witness_match_reference(self):
        refuted = {e: 0 for _, e, _ in TOWERS}
        for code, fam in grid(3):
            report = is_correcting(code, fam, all_patterns=True)
            ok, t, witness = reference_is_correcting(code, fam)
            assert report.correcting == ok
            assert report.pattern == t
            assert report.witness == witness
            if not ok:
                refuted[code.ext.base.e] += 1
        assert all(refuted.values()), refuted

    def test_pattern_system_view_matches_reference(self):
        for code, fam in grid(4, per_tower=2):
            for t in enumerate_family(fam):
                system = pattern_system(code, t)
                matrix, labels = reference_system(code, t)
                assert [list(row) for row in system.matrix] == matrix
                assert list(system.labels) == labels

    def test_zero_row_code(self):
        ext = tower(3, 1, 2)
        code = code_from_rows(ext, [], ext.polynomial_basis(), length=2)
        for t in enumerate_family(FullFamily(2, 2, 2)):
            assert pattern_correctable(code, t) == reference_correctable(code, t)
        report = is_correcting(code, FullFamily(2, 1, 2))
        assert not report.correcting and report.witness == reference_is_correcting(
            code, FullFamily(2, 1, 2)
        )[2]


class TestBasis:
    def test_transform_matches_reference(self):
        # seeded random tuples over every tower, every third one forced
        # dependent (its last element an F_q combination of the others)
        rng = random.Random(10)
        seen = set()
        for p, e, alpha in TOWERS:
            ext = tower(p, e, alpha)
            base = ext.base
            for k in range(9):
                elems = [ext.from_index(rng.randrange(ext.order)) for _ in range(alpha)]
                if k % 3 == 0:
                    scalars = [base.from_index(rng.randrange(base.order)) for _ in elems[1:]]
                    elems[-1] = sum(
                        (ext.lift(c) * w for c, w in zip(scalars, elems[:-1])), ext.zero()
                    )
                ok = reference_is_basis(ext, elems)
                assert is_basis(ext, elems) == ok
                assert not is_basis(ext, elems[:-1])
                seen.add((e, ok))
                if not ok:
                    with pytest.raises(InvalidBasisError):
                        OrderedBasis(ext, elems)
                    continue
                omega = OrderedBasis(ext, elems)
                for _ in range(4):
                    x = ext.from_index(rng.randrange(ext.order))
                    coords = reference_coordinates(omega, x)
                    assert omega.coordinates(x) == coords
                    assert omega.coordinate_digits(x) == [d for c in coords for d in c.coeffs]
                    scalars = [base.from_index(rng.randrange(base.order)) for _ in range(alpha)]
                    assert omega.combine(scalars) == reference_combine(omega, scalars)
        assert seen == {(e, ok) for e in (1, 2, 3) for ok in (True, False)}

    def test_digit_maps_match_reference_on_random_digits(self):
        # from_coordinate_digits on seeded random digit vectors, and
        # coordinate_digits on the element it returns
        rng = random.Random(11)
        for p, e, alpha in TOWERS:
            ext = tower(p, e, alpha)
            base = ext.base
            for omega in (ext.polynomial_basis(), _random_basis(ext, rng)):
                for _ in range(8):
                    digits = [rng.choice([rng.randrange(p), p - 1]) for _ in range(alpha * e)]
                    coords = [Element(base, tuple(digits[j * e : (j + 1) * e])) for j in range(alpha)]
                    x = omega.from_coordinate_digits(digits)
                    assert x == reference_combine(omega, coords)
                    assert omega.coordinate_digits(x) == digits


class TestDecode:
    def test_matches_reference(self):
        rng = random.Random(5)
        seen = set()
        for code, fam in grid(6):
            basis = kernel_basis(code)
            base = code.ext.base
            for t in enumerate_family(fam):
                word = random_codeword(code, rng, basis)
                received = apply_erasure(word, t, code.omega)
                words = [received]
                # a tampered known digit is inconsistent whenever the
                # known part is checked by some row
                known = [list(s) for s in received.known]
                for s in known:
                    if s:
                        s[0] = s[0] + base.one()
                        words.append(ReceivedWord(code.omega, t, tuple(tuple(x) for x in known)))
                        break
                for rw in words:
                    got = decode(code, rw)
                    want = reference_decode(code, rw)
                    assert (got.status, got.codeword, got.solution_space_dim) == want, (
                        code.ext, code.H, t,
                    )
                    seen.add(got.status)
        assert seen == {"decoded", "ambiguous", "inconsistent"}

    def test_known_columns_beyond_the_width(self):
        # one check row and six symbols: the known suffix has more nonzero
        # digits than the expansion's r * alpha * e lanes, so the packed
        # right-hand side is normalized more than once
        rng = random.Random(13)
        seen, longest = set(), 0
        for p, e, alpha in TOWERS:
            ext = tower(p, e, alpha)
            code = random_code(ext, 6, 1, rng)
            base = code.ext.base
            basis = kernel_basis(code)
            for t in [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, alpha), (alpha, alpha, 0, 0, 0, 0)]:
                received = apply_erasure(random_codeword(code, rng, basis), t, code.omega)
                known = [list(s) for s in received.known]
                longest = max(longest, sum(d != 0 for s in known for c in s for d in c.coeffs) - alpha * e)
                known[2][0] = known[2][0] + base.one()  # symbol 2 is never erased
                tampered = ReceivedWord(code.omega, t, tuple(tuple(s) for s in known))
                for rw in (received, tampered):
                    got = decode(code, rw)
                    want = reference_decode(code, rw)
                    assert (got.status, got.codeword, got.solution_space_dim) == want, (ext, t)
                    seen.add(got.status)
        assert longest > 0
        assert seen == {"decoded", "ambiguous", "inconsistent"}


class TestUdm:
    def random_sets(self, seed):
        rng = random.Random(seed)
        for p, e in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
            f = field(p, e)
            for _ in range(6):
                n, alpha = rng.randrange(1, 4), rng.randrange(1, 3)
                m = rng.randrange(alpha, alpha + 2)
                mats = tuple(
                    tuple(
                        tuple(f.from_index(rng.randrange(f.order)) for _ in range(m))
                        for _ in range(alpha)
                    )
                    for _ in range(n)
                )
                yield UdmSet(f, alpha, m, mats)

    def test_random_sets_match_reference(self):
        outcomes = set()
        for u in self.random_sets(8):
            check = verify_udm(u)
            assert (check.ok, check.counterexample) == reference_verify_udm(u)
            outcomes.add(check.ok)
        assert outcomes == {True, False}

    def test_vontobel_matches_reference(self, monkeypatch):
        # build the matrices without the constructor's own check, then
        # compare both routes on exactly what it would have checked
        built = []
        monkeypatch.setattr(udm, "verify_udm", lambda u: built.append(u) or udm.UdmCheck(True))
        for p, e in ((2, 1), (3, 1), (2, 2), (5, 1)):
            f = field(p, e)
            for n in range(1, 5):
                if f.order < n - 1:
                    continue
                for alpha in (1, 2, 3):
                    for m in range(alpha, 5):
                        vontobel_udms(n, alpha, m, f)
        monkeypatch.undo()
        outcomes = set()
        for u in built:
            check = verify_udm(u)
            assert (check.ok, check.counterexample) == reference_verify_udm(u)
            outcomes.add(check.ok)
        assert outcomes == {True}


def test_codes_are_not_kept_alive():
    # the expansion lives on the code, so nothing outlives it
    ext = tower(3, 1, 2)
    code = length2_code(ext)
    report = is_correcting(code, code.claim, all_patterns=True)
    assert report.correcting
    word = kernel_basis(code)[0]
    assert decode(code, apply_erasure(word, (1, 1), code.omega)).codeword == word
    ref = weakref.ref(code)
    del code, report
    gc.collect()
    assert ref() is None


def test_greedy_gv_probes_are_released():
    from hierasure import LinearCode, greedy_gv_code

    def live_codes():
        gc.collect()
        return sum(isinstance(o, LinearCode) for o in gc.get_objects())

    before = live_codes()
    code = greedy_gv_code(6, 3, 1, tower(3, 1, 2), seed=1)
    assert live_codes() == before + 1
    del code
    assert live_codes() == before
