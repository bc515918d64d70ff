import json
import random

import pytest

from hierasure import (
    BalancedFamily,
    BoundedFamily,
    FullFamily,
    ParameterError,
    PowerFamily,
    UdmSet,
    apply_erasure,
    balanced_code,
    fields,
    gabidulin_code,
    kernel_basis,
    length2_code,
    modp,
    serialize,
    vontobel_udms,
)
from towers import TOWERS, field, tower


def canon(payload):
    return json.dumps(payload, sort_keys=True)


class TestElements:
    def test_nested_coefficient_arrays(self):
        # elements load only inside payloads: an extension element in a
        # codeword, a base element in a UDM set
        ext = tower(2, 2, 2)
        el = ext.from_index(7)
        payload = serialize.codeword_to_json([el])
        assert payload == [serialize.element_to_json(el)] == [[[1, 1], [1, 0]]]
        assert serialize.codeword_from_json(ext, payload) == (el,)
        base_el = ext.base.from_index(3)
        u = UdmSet(ext.base, 1, 1, (((base_el,),),))
        payload = serialize.udms_to_json(u)
        assert payload["matrices"] == [[[serialize.element_to_json(base_el)]]] == [[[[1, 1]]]]
        assert serialize.udms_from_json(payload).matrices == (((base_el,),),)

    @pytest.mark.parametrize("key", sorted(TOWERS), ids=str)
    def test_codeword_round_trip_is_byte_identical(self, key):
        # in memory an extension element is its digits flattened; the wire
        # keeps one list per coefficient, so a load and a write give back
        # the same text on every tower
        ext = tower(*key)
        p, e, alpha = ext.p, ext.base.e, ext.alpha
        rng = random.Random(str(key))
        word = [[[rng.randrange(p) for _ in range(e)] for _ in range(alpha)] for _ in range(3)]
        word += [[[0] * e] * alpha, [[p - 1] * e] * alpha]
        text = json.dumps(word)
        assert json.dumps(serialize.codeword_to_json(serialize.codeword_from_json(ext, json.loads(text)))) == text


class TestFamilies:
    def test_all_kinds(self):
        for fam in (
            FullFamily(2, 2, 3),
            BalancedFamily(4, 4),
            PowerFamily(4, 2),
            BoundedFamily(1, 3),
        ):
            assert serialize.family_from_json(serialize.family_to_json(fam)) == fam

    @pytest.mark.parametrize(
        "payload,error",
        [
            ({"kind": "diagonal", "n": 3}, "unknown family kind 'diagonal'"),
            ({"kind": 3, "n": 3}, "unknown family kind 3"),
            ({"kind": ["full"], "alpha": 2, "m": 2, "n": 3}, "unknown family kind ['full']"),
            ({"kind": {"full": 1}, "n": 3}, "unknown family kind {'full': 1}"),
            ({"alpha": 2, "m": 2, "n": 3}, "malformed family payload: missing key 'kind'"),
            ({"kind": "full", "alpha": 2, "n": 3}, "malformed family payload: missing key 'm'"),
            ({"kind": "bounded", "alpha": 2, "n": 3}, "malformed family payload: missing key 'r'"),
        ],
    )
    def test_rejected_payloads(self, payload, error):
        with pytest.raises(ParameterError) as exc:
            serialize.family_from_json(payload)
        assert str(exc.value) == error

    def test_pattern_lists(self):
        pats = [(0, 1), (2, 0), (1, 1)]
        assert serialize.patterns_from_json(serialize.patterns_to_json(pats)) == pats


class TestCodes:
    def codes(self):
        yield length2_code(tower(2, 1, 2))
        yield balanced_code(4, tower(5, 1, 4))
        yield gabidulin_code(3, 1, tower(2, 1, 3))

    def test_round_trip(self):
        for code in self.codes():
            payload = serialize.code_to_json(code)
            back = serialize.code_from_json(json.loads(canon(payload)))
            assert back.ext == code.ext
            assert back.H == code.H
            assert back.omega == code.omega
            assert back.claim == code.claim
            assert back.dim == code.dim
            assert canon(serialize.code_to_json(back)) == canon(payload)

    def test_load_does_no_rank_elimination(self, monkeypatch):
        # Echelon.insert is the package's one elimination routine.  Besides
        # the tests of its two moduli, a load runs only omega's basis check,
        # one insert per F_p digit element; the rank of H waits for its
        # first read
        inserts = []
        insert = modp.Echelon.insert
        irreducible = fields._Field._irreducible
        in_modulus_test = []

        def counted(ech, v):
            if not in_modulus_test:
                inserts.append(v)
            return insert(ech, v)

        def modulus_test(spec):
            in_modulus_test.append(spec)
            try:
                return irreducible(spec)
            finally:
                in_modulus_test.pop()

        monkeypatch.setattr(modp.Echelon, "insert", counted)
        monkeypatch.setattr(fields._Field, "_irreducible", modulus_test)
        for code in self.codes():
            payload = json.loads(canon(serialize.code_to_json(code)))
            inserts.clear()
            back = serialize.code_from_json(payload)
            assert len(inserts) == code.ext.alpha * code.ext.base.e
            assert back.rank == code.rank
            assert len(inserts) > code.ext.alpha * code.ext.base.e

    def test_zero_row_code_keeps_length(self):
        code = gabidulin_code(2, 0, tower(2, 1, 2))
        back = serialize.code_from_json(serialize.code_to_json(code))
        assert back.n == 2 and back.r == 0 and back.dim == 2


class TestUdms:
    def test_round_trip(self):
        u = vontobel_udms(3, 2, 3, field(3, 1))
        payload = serialize.udms_to_json(u)
        back = serialize.udms_from_json(json.loads(canon(payload)))
        assert back.field == u.field
        assert back.matrices == u.matrices
        assert back.meta == dict(u.meta)
        assert canon(serialize.udms_to_json(back)) == canon(payload)


class TestReceived:
    def test_round_trip(self):
        code = length2_code(tower(2, 1, 4))
        word = tuple(kernel_basis(code)[0])
        rw = apply_erasure(word, (3, 1), code.omega)
        payload = serialize.received_to_json(rw)
        back = serialize.received_from_json(json.loads(canon(payload)))
        assert back == rw
        assert canon(serialize.received_to_json(back)) == canon(payload)

    def received(self):
        code = balanced_code(4, tower(5, 1, 4))
        word = tuple(kernel_basis(code)[0])
        rw = apply_erasure(word, (2, 1, 0, 1), code.omega)
        return code, rw, json.loads(canon(serialize.received_to_json(rw)))

    def test_without_like_loads_its_own_tower(self):
        code, rw, payload = self.received()
        back = serialize.received_from_json(payload)
        assert back == rw
        assert back.omega is not code.omega and back.omega.ext is not code.ext

    def test_like_with_the_same_json_is_reused(self):
        code, rw, payload = self.received()
        back = serialize.received_from_json(payload, like=code.omega)
        assert back == rw
        assert back.omega is code.omega and back.omega.ext is code.ext

    def test_like_with_other_json_is_not_reused(self):
        code, rw, payload = self.received()
        # the same tower, spelled with 0 + p in the base modulus
        payload["field"]["modulus"][0] += 5
        back = serialize.received_from_json(payload, like=code.omega)
        assert back == rw and back.omega is not code.omega
        # a different basis is loaded as given, for decode to reject
        payload["omega"] = payload["omega"][::-1]
        back = serialize.received_from_json(payload, like=code.omega)
        assert back.omega != code.omega

    def test_like_does_not_accept_floats_or_booleans(self):
        code, _, payload = self.received()
        for edit in (lambda c: c["field"].update(p=5.0), lambda c: c["ext"]["modulus"][-1].__setitem__(0, True)):
            bad = json.loads(canon(payload))
            edit(bad)
            with pytest.raises(ParameterError):
                serialize.received_from_json(bad, like=code.omega)

    def test_codeword_payload(self):
        ext = tower(3, 1, 2)
        word = (ext.from_index(5), ext.from_index(2))
        payload = serialize.codeword_to_json(word)
        assert serialize.codeword_from_json(ext, payload) == word


def _set(key, value):
    def edit(payload):
        payload[key] = value
        return payload

    return edit


def _set_first(key, value):
    def edit(payload):
        payload[key][0] = value
        return payload

    return edit


class TestListPayloads:
    """Where a payload needs a list, a JSON object or string is refused: it
    would iterate as its keys or characters."""

    @pytest.fixture(scope="class")
    def payloads(self):
        code = length2_code(tower(2, 1, 2))
        word = tuple(kernel_basis(code)[0])
        return {
            "code": (serialize.code_from_json, serialize.code_to_json(code)),
            "udms": (serialize.udms_from_json, serialize.udms_to_json(vontobel_udms(3, 2, 3, field(3, 1)))),
            "received word": (
                serialize.received_from_json,
                serialize.received_to_json(apply_erasure(word, (1, 1), code.omega)),
            ),
            "codeword": (lambda obj: serialize.codeword_from_json(code.ext, obj), serialize.codeword_to_json(word)),
            "patterns": (serialize.patterns_from_json, [[1, 1], [2, 0]]),
        }

    @pytest.mark.parametrize(
        "source,kind,edit",
        [
            ("patterns", "patterns", lambda _: {}),
            ("patterns", "patterns", lambda _: "x"),
            ("patterns", "patterns", lambda _: ["x"]),
            ("patterns", "patterns", lambda _: [{"0": 1}]),
            ("code", "code", _set("H", {})),
            ("code", "code", _set_first("H", {})),
            ("code", "basis", _set("omega", {})),
            ("udms", "udms", _set("matrices", {})),
            ("udms", "udms", _set_first("matrices", {})),
            ("received word", "received word", _set("known", {})),
            ("received word", "received word", _set_first("known", "x")),
            ("received word", "received word", _set("t", {})),
            ("received word", "basis", _set("omega", "x")),
            ("codeword", "codeword", lambda _: {}),
        ],
        ids=[
            "patterns-object", "patterns-string", "pattern-string", "pattern-object",
            "H-object", "H-row-object", "omega-object", "matrices-object", "matrix-object",
            "known-object", "suffix-string", "t-object", "received-omega-string", "codeword-object",
        ],
    )
    def test_object_or_string_for_a_list(self, payloads, source, kind, edit):
        load, payload = payloads[source]
        bad = edit(json.loads(canon(payload)))
        with pytest.raises(ParameterError) as exc:
            load(bad)
        assert str(exc.value) == f"malformed {kind} payload: expected a list"
