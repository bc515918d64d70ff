"""Compiled decode plans against the F_q reference decoder.

``decode`` reduces the known digits times their tagged columns against a
plan, the echelon of a pattern's erased tagged columns, built once per
(code, pattern) and kept on the code with the list of the pattern's
known tagged columns.  A column's tag lanes carry the power digits of
its basis element w_k, so the tag lanes of the reduced vector are the
codeword's power digits.  The witness of a pattern that is not
correctable needs no tagged column: it is the first kernel vector of the
pattern's erased block columns, read as coordinates over omega, and a
refutation builds none of the decoder's tagged state, so its memory
grows linearly in n.  The tests pin the decode's sign, and check plan
reuse (no insert on a second word, tampered and honest words through
one plan, separate plans per code, the cap), the tower check on each
known element, the zero codeword, and words that drive the right-hand
side's lanes to their bound (every known digit p - 1 under the zero
pattern is one sum of exactly the terms the lanes hold), over the primes
of ``test_modp`` and towers with e = 2 and e = 3, all against
``reference_decode`` and ``reference_witness`` (witnesses also over the
dual basis).  A code's layouts share one lane width of whole bytes, and
the elements of a decoded word, built without the frozen ``__init__``,
behave as ``Element(spec, raw)`` does.

A traced memory figure is taken after a full collection: ``tracemalloc``
counts only blocks allocated while it traces, and CPython hands tuples,
lists, dicts and floats out first from per-type free lists, so blocks
left on those lists by earlier tests would be reused uncounted and lower
the figure by an amount that depends on test order, not on n.
``gc.collect()`` clears the built-in free lists.  A figure compared
across lengths also runs once untraced first, so state built once per
process (the ``modp.layout`` cache) is charged to neither length.
"""

import dataclasses
import gc
import itertools
import random
import sys
import tracemalloc

import pytest

from hierasure import (
    BalancedFamily,
    Element,
    FieldSpec,
    FullFamily,
    OrderedBasis,
    ParameterError,
    ReceivedWord,
    apply_erasure,
    balanced_code,
    code_from_rows,
    codes,
    correctability,
    decode,
    dual_basis,
    enumerate_family,
    fields,
    is_correcting,
    kernel_basis,
    modp,
)
from reference import reference_correctable, reference_decode, reference_witness
from test_differential import random_code, random_codeword
from towers import long_code, tower

PRIMES = [2, 3, 7, 11, 251, 65521]
# (p, e, alpha): a prime tower per prime, then the differential grid's
# towers over F_4, F_9 and F_8 (alpha = 2) and F_4 (alpha = 3)
LANE_TOWERS = [(p, 1, 2) for p in PRIMES] + [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)]


def outcome(result):
    return result.status, result.codeword, result.solution_space_dim


def tampered(received, symbol):
    base = received.omega.ext.base
    known = [list(s) for s in received.known]
    known[symbol][0] = known[symbol][0] + base.one()
    return ReceivedWord(received.omega, received.pattern, tuple(tuple(s) for s in known))


def nonzero_code(ext, n, r, rng):
    """A random code whose check entries are all nonzero."""
    while True:
        code = random_code(ext, n, r, rng)
        if all(h for row in code.H for h in row):
            return code


@pytest.fixture
def inserts(monkeypatch):
    """Counts ``Echelon.insert`` calls."""
    calls = []
    insert = modp.Echelon.insert

    def counted(self, x):
        calls.append(1)
        return insert(self, x)

    monkeypatch.setattr(modp.Echelon, "insert", counted)
    return calls


class TestPlanReuse:
    def test_second_word_on_a_pattern_inserts_nothing(self, inserts):
        rng = random.Random(21)
        code = nonzero_code(tower(3, 1, 2), 4, 1, rng)
        basis = kernel_basis(code)
        t = (2, 0, 0, 0)
        first = random_codeword(code, rng, basis)
        assert decode(code, apply_erasure(first, t, code.omega)).codeword == first
        assert inserts
        inserts.clear()
        for _ in range(3):
            word = random_codeword(code, rng, basis)
            got = decode(code, apply_erasure(word, t, code.omega))
            assert got.status == "decoded" and got.codeword == word
        assert not inserts

    def test_plan_built_from_a_tampered_word_decodes_an_honest_one(self):
        rng = random.Random(22)
        for p, e, alpha in [(3, 1, 2), (2, 2, 2), (2, 2, 3)]:
            code = nonzero_code(tower(p, e, alpha), 4, 1, rng)
            word = random_codeword(code, rng, kernel_basis(code))
            # one erased coordinate leaves the known symbols checked
            honest = apply_erasure(word, (1, 0, 0, 0), code.omega)
            bad = tampered(honest, 1)
            assert outcome(decode(code, bad)) == reference_decode(code, bad)
            assert decode(code, bad).status == "inconsistent"
            assert list(code._plans) == [honest.pattern]
            assert outcome(decode(code, honest)) == ("decoded", word, 0)
            assert len(code._plans) == 1

    def test_ambiguous_pattern_still_rejects_a_tampered_word(self):
        # symbol 0's check column is zero, so erasing it leaves its digits
        # free while the known symbols are still checked
        rng = random.Random(23)
        for p, e, alpha in [(3, 1, 2), (2, 2, 2), (2, 3, 2)]:
            ext = tower(p, e, alpha)
            row = [ext.zero()] + [ext.from_index(rng.randrange(1, ext.order)) for _ in range(3)]
            code = code_from_rows(ext, [row], ext.polynomial_basis())
            word = random_codeword(code, rng, kernel_basis(code))
            honest = apply_erasure(word, (1, 0, 0, 0), code.omega)
            bad = tampered(honest, 2)
            for rw, status in ((bad, "inconsistent"), (honest, "ambiguous"), (bad, "inconsistent")):
                got = decode(code, rw)
                assert got.status == status
                assert outcome(got) == reference_decode(code, rw)
            assert decode(code, honest).solution_space_dim == 1
            assert len(code._plans) == 1

    def test_codes_sharing_omega_keep_separate_plans(self):
        rng = random.Random(24)
        ext = tower(5, 1, 2)
        omega = ext.polynomial_basis()
        pair = []
        for zero in (False, True):
            row = [ext.from_index(rng.randrange(1, ext.order)) for _ in range(3)]
            if zero:
                row[0] = ext.zero()  # the same pattern is ambiguous here only
            pair.append(code_from_rows(ext, [row], omega))
        bases = [kernel_basis(code) for code in pair]
        t = (2, 0, 0)
        seen = []
        for k in range(4):
            code = pair[k % 2]
            word = random_codeword(code, rng, bases[k % 2])
            rw = apply_erasure(word, t, omega)
            got = decode(code, rw)
            assert outcome(got) == reference_decode(code, rw)
            seen.append(got.status)
        assert seen == ["decoded", "ambiguous"] * 2
        assert pair[0]._plans[t] is not pair[1]._plans[t]
        assert [list(code._plans) for code in pair] == [[t], [t]]

    def test_more_patterns_than_the_cap(self):
        rng = random.Random(25)
        code = random_code(tower(2, 1, 2), 7, 2, rng)
        basis = kernel_basis(code)
        patterns = list(itertools.product(range(3), repeat=7))[: codes.PLAN_CAP + 6]
        statuses = set()
        for t in patterns:
            rw = apply_erasure(random_codeword(code, rng, basis), t, code.omega)
            got = decode(code, rw)
            assert outcome(got) == reference_decode(code, rw), t
            statuses.add(got.status)
            assert len(code._plans) <= codes.PLAN_CAP
        assert statuses == {"decoded", "ambiguous"}
        # the oldest plans went first
        assert list(code._plans) == patterns[6:]
        rw = apply_erasure(random_codeword(code, rng, basis), patterns[0], code.omega)
        assert outcome(decode(code, rw)) == reference_decode(code, rw)
        assert list(code._plans) == patterns[7:] + patterns[:1]


class TestTaggedColumns:
    @pytest.mark.parametrize("p, e, alpha", LANE_TOWERS)
    def test_tags_are_the_power_digits_of_each_basis_element(self, p, e, alpha):
        # column k = j*e + d of symbol i is block(i)[k] plus the power
        # digits of omega_j * x^d in tag group i, and nothing elsewhere
        ext = tower(p, e, alpha)
        base = ext.base
        code = nonzero_code(ext, 3, 1, random.Random(f"tags/{p}/{e}/{alpha}"))
        lay = code.decode_layout
        span = alpha * e
        # lanes that hold a product per known digit a word can have, shared
        # by the blocks, the tagged columns, the product table and the
        # tagged systems made from them (a witness's ``modp.kernel`` tags
        # the blocks), rounded up to whole bytes
        assert lay.terms == code.layout.terms == 3 * span
        tlay, products = code.table
        tagged_blocks, _ = modp.tagged(code.block(0), code.layout)
        assert lay.bits == code.layout.bits == tlay.bits == tagged_blocks.bits
        assert lay.bits % 8 == 0 and lay.bits - 8 < modp.layout(p, lay.width, 0, lay.terms).bits
        # group k of the code's own P_0 holds the power digits of w_k
        groups = tlay.digits(products[0])
        for i, block in enumerate(code.decode_columns):
            for k, col in enumerate(block):
                j, d = divmod(k, e)
                x_d = ext.lift(Element(base, tuple([int(m == d) for m in range(e)])))
                want = list((code.omega.elements[j] * x_d).coeffs)
                tags = lay.digits(col, lay.width)
                assert tags[i * span : (i + 1) * span] == want, (i, k)
                assert groups[k * span : (k + 1) * span] == want, k
                assert not any(tags[: i * span] + tags[(i + 1) * span :])
                assert col & lay.pivots == code.block(i)[k]

    @pytest.mark.parametrize("p, e, alpha", LANE_TOWERS)
    def test_read_tags_builds_plain_elements(self, p, e, alpha):
        # read_tags builds its elements without the frozen __init__: they
        # equal, hash and refuse assignment as Element(spec, raw) does
        ext = tower(p, e, alpha)
        rng = random.Random(f"elements/{p}/{e}/{alpha}")
        code = nonzero_code(ext, 3, 1, rng)
        word = random_codeword(code, rng, kernel_basis(code))
        got = decode(code, apply_erasure(word, (alpha, 0, 0), code.omega))
        assert got.codeword == word
        for el in got.codeword:
            twin = Element(ext, el.coeffs)
            made = fields._element(ext, el.coeffs)
            assert type(el) is type(made) is Element
            assert made == twin == el and hash(made) == hash(twin) and repr(made) == repr(twin)
            with pytest.raises(dataclasses.FrozenInstanceError):
                made.coeffs = ext.rzero
            with pytest.raises(dataclasses.FrozenInstanceError):
                made.spec = ext.base
            assert made.spec is ext

    @pytest.mark.parametrize("n", [300, 600])
    def test_tagged_state_is_held_once(self, n):
        # the tagged columns of the GF(4) parity code grow as n^2, and
        # building them leaves little else allocated beside them: no second
        # copy of their tags is kept, on the code or on its basis
        code = long_code(n)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cols = code.decode_columns
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        size = sum(sys.getsizeof(v) for block in cols for v in block)
        assert size <= grown <= 1.2 * size, (grown, size)

    def test_plan_lists_the_known_columns_themselves(self):
        code = nonzero_code(tower(2, 2, 3), 4, 1, random.Random(26))
        t = (3, 1, 0, 2)
        _, _, known = code.decode_plan(t)
        want = [v for block, ti in zip(code.decode_columns, t) for v in block[ti * 2 :]]
        assert len(known) == len(want) == sum(3 - ti for ti in t) * 2
        assert all(a is b for a, b in zip(known, want))


class TestKnownElements:
    @pytest.mark.parametrize("p, e, alpha", [(3, 1, 2), (2, 2, 2), (2, 3, 2)])
    def test_equal_but_distinct_fields_decode_as_before(self, p, e, alpha):
        rng = random.Random(f"twin/{p}/{e}/{alpha}")
        code = nonzero_code(tower(p, e, alpha), 4, 1, rng)
        base = code.ext.base
        twin = FieldSpec(base.p, base.e, base.modulus)
        omega = OrderedBasis(code.ext, code.omega.elements)
        assert twin == base and twin is not base and omega is not code.omega
        word = random_codeword(code, rng, kernel_basis(code))
        for t in ((1, 0, 0, 0), (alpha, 1, 0, 0)):
            rw = apply_erasure(word, t, code.omega)
            moved = ReceivedWord(omega, t, tuple(tuple(Element(twin, c.coeffs) for c in s) for s in rw.known))
            assert outcome(decode(code, moved)) == outcome(decode(code, rw)) == reference_decode(code, rw)

    def test_an_element_of_another_field_is_refused(self):
        rng = random.Random(27)
        code = nonzero_code(tower(3, 1, 2), 4, 1, rng)
        rw = apply_erasure(random_codeword(code, rng, kernel_basis(code)), (1, 0, 0, 0), code.omega)
        foreign = tower(5, 1, 2).base.one()
        for symbol, at in ((0, 0), (3, 1)):
            known = [list(s) for s in rw.known]
            known[symbol][at] = foreign
            bad = ReceivedWord(rw.omega, rw.pattern, tuple(map(tuple, known)))
            with pytest.raises(ParameterError, match="used with"):
                decode(code, bad)


def test_zero_codeword_under_every_balanced_member():
    # every known digit is zero, and the combination multiplies by each
    ext = tower(5, 1, 4)
    code = balanced_code(4, ext)
    zero = (ext.zero(),) * 4
    members = list(enumerate_family(BalancedFamily(4, 4)))
    assert len(members) > 1
    for t in members:
        got = decode(code, apply_erasure(zero, t, code.omega))
        assert outcome(got) == ("decoded", zero, 0), t


class TestLanesAtTheirBound:
    @pytest.mark.parametrize("p, e, alpha", LANE_TOWERS)
    def test_extreme_known_digits_match_reference(self, p, e, alpha):
        # every known digit p - 1 (coefficient 1), every known digit 1
        # (coefficient p - 1, so each term adds up to (p - 1)^2 per lane),
        # or a mix; far more nonzero known digits than the r * alpha * e
        # pivot lanes, so the right-hand side is normalized several times
        rng = random.Random(f"lanes/{p}/{e}/{alpha}")
        ext = tower(p, e, alpha)
        base = ext.base
        statuses = set()
        for n, r in ((4, 1), (5, 2), (6, 1)):
            code = nonzero_code(ext, n, r, rng)
            width = code.layout.width
            patterns = [
                (alpha,) * r + (0,) * (n - r),  # a square system
                (alpha,) * r + (1,) + (0,) * (n - r - 1),  # one symbol more
                (1,) + (0,) * (n - 1),
            ]
            for t in patterns:
                for fill in ([p - 1], [1], [1, p - 1]):
                    known = tuple(
                        tuple(
                            Element(base, tuple([rng.choice(fill) for _ in range(e)]))
                            for _ in range(alpha - ti)
                        )
                        for ti in t
                    )
                    assert sum(alpha - ti for ti in t) * e > width
                    rw = ReceivedWord(code.omega, t, known)
                    got = decode(code, rw)
                    assert outcome(got) == reference_decode(code, rw), (code.H, t, fill)
                    statuses.add(got.status)
        assert statuses == {"decoded", "ambiguous", "inconsistent"}


    @pytest.mark.parametrize("p, e, alpha", LANE_TOWERS)
    def test_every_known_digit_at_its_maximum(self, p, e, alpha):
        # every known digit p - 1, under the pattern with the most known
        # digits for each status: the zero pattern, whose n * alpha * e
        # known digits are exactly the terms the code's lanes hold, so the
        # right-hand side is one sum at its bound; then r whole symbols
        # erased (a square system) and one coordinate more.  On a code
        # whose last column is minus the sum of the others, the word of
        # all p - 1 digits is a codeword, so these decode, the last
        # ambiguously; on a random code the zero pattern is inconsistent
        rng = random.Random(f"headroom/{p}/{e}/{alpha}")
        ext = tower(p, e, alpha)
        base = ext.base
        top = Element(base, (p - 1,) * e)
        n, r = 5, 2
        statuses = set()
        for honest in (True, False):
            code = nonzero_code(ext, n, r, rng)
            if honest:
                rows = [list(row[:-1]) + [-sum(row[1:-1], row[0])] for row in code.H]
                code = code_from_rows(ext, rows, code.omega)
            patterns = [
                (0,) * n,
                (alpha,) * r + (0,) * (n - r),
                (alpha,) * r + (1,) + (0,) * (n - r - 1),
            ]
            for t in patterns:
                rw = ReceivedWord(code.omega, t, tuple((top,) * (alpha - ti) for ti in t))
                if not any(t):
                    assert sum(alpha - ti for ti in t) * e == code.layout.terms
                got = decode(code, rw)
                assert outcome(got) == reference_decode(code, rw), (code.H, t)
                statuses.add(got.status)
        assert statuses == {"decoded", "ambiguous", "inconsistent"}


@pytest.mark.parametrize(
    "p, e",
    [pytest.param(p, 1, id=str(p)) for p in PRIMES] + [pytest.param(2, e, id=f"2^{e}") for e in (2, 3)],
)
def test_witnesses_match_reference(p, e):
    # every pattern of a full family on small random codes, some with a
    # zero column or a dependent row, so many patterns fail; each code over
    # its own basis (polynomial or random) and over the dual of the
    # polynomial basis, on prime towers and over GF(4) and GF(8)
    rng = random.Random(f"witness/{p}" if e == 1 else f"witness/{p}^{e}")
    ext = tower(p, e, 2)
    dual = dual_basis(ext.polynomial_basis())
    failing = 0
    for k in range(4):
        code = random_code(ext, rng.randrange(2, 4), rng.randrange(1, 3), rng, k % 2 == 1, k >= 2)
        for code in (code, code_from_rows(ext, code.H, dual)):
            for t in enumerate_family(FullFamily(2, 2 * code.r, code.n)):
                if reference_correctable(code, t):
                    with pytest.raises(ParameterError):
                        correctability._pattern_witness(code, t)
                else:
                    assert correctability._pattern_witness(code, t) == reference_witness(code, t)
                    failing += 1
    assert failing > 0


def test_refutation_state_is_linear():
    # full:3 fails on the GF(4) parity code (the last two symbols' first
    # coordinates cancel), and the refutation reads the pattern's erased
    # columns untagged: its peak memory grows with n, and the decoder's
    # n^2 tagged columns are never built.  An untraced warm-up builds the
    # once-per-process state, and a full collection before each trace
    # clears the free lists whose reuse would hide blocks from tracemalloc
    is_correcting(long_code(50), FullFamily(2, 3, 50))
    peaks = []
    for n in (600, 1200):
        code = long_code(n)
        gc.collect()
        tracemalloc.start()
        try:
            report = is_correcting(code, FullFamily(2, 3, n))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert not report.correcting
        assert sum(1 for c in report.witness if c) == 2
        assert "decode_columns" not in code.__dict__
    assert peaks[1] <= 2.5 * peaks[0], peaks
