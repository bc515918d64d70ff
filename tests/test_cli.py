import enum
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hierasure import FullFamily, ReceivedWord, code_from_rows, find_quadratic_root, serialize
from hierasure import apply_erasure, b_symmetric_basis, kernel_basis, length2_code, maximal_patterns
from hierasure import fields, make_tower
from hierasure.cli import _json_text, _write_json, main
from towers import LONG, long_code, tower

SRC = Path(__file__).resolve().parents[1] / "src"
# a UDM payload of no rows and no columns, all but its alpha
EMPTY_UDMS = {"field": {"p": 7, "e": 1, "modulus": [0, 1]}, "m": 0, "matrices": [[], []], "meta": {}}


def run(*argv):
    return main(list(argv))


def construct(tmp_path, *argv):
    out = tmp_path / "code.json"
    assert run("construct", *argv, "--out", str(out)) == 0
    return out


def run_child(*argv, timeout):
    """Run ``python -m hierasure ARGV`` in a child process with src on the
    path, killed after ``timeout`` seconds; return its exit code, its
    stdout and its own max RSS in MiB.  The RSS is ``os.wait4``'s for that
    one child: ``RUSAGE_CHILDREN`` here would report the largest child of
    the whole test run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryFile("w+") as out:
        proc = subprocess.Popen([sys.executable, "-m", "hierasure", *argv], stdout=out, env=env)
        deadline = time.monotonic() + timeout
        while not (done := os.wait4(proc.pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                pytest.fail(f"hierasure {' '.join(argv)} ran past {timeout} s")
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(done[1])
        out.seek(0)
        return proc.returncode, out.read(), done[2].ru_maxrss / 1024


class TestConstructVerify:
    def test_length2_flow(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        assert run("construct", "length2", "--p", "2", "--alpha", "2", "--out", str(out)) == 0
        assert out.exists()
        assert (tmp_path / "code.json.manifest.json").exists()
        assert run("verify", "--code", str(out)) == 0
        captured = capsys.readouterr()
        assert "correcting: True" in captured.out

    def test_verify_explicit_family(self, tmp_path):
        out = tmp_path / "code.json"
        run("construct", "length2", "--p", "3", "--alpha", "2", "--out", str(out))
        assert run("verify", "--code", str(out), "--family", "full:2") == 0
        assert run("verify", "--code", str(out), "--family", "full:1") == 0

    @pytest.mark.parametrize(
        "balanced,family,counterexample",
        [
            pytest.param((), (), [1, 1], id="parity-pair"),
            # over GF(3^2) the walk takes unit e = 2 vectors down the power family's trie
            pytest.param(("--p", "3", "--e", "2", "--alpha", "4", "--n", "4"), ("--family", "power"), [1, 1, 0, 2],
                         id="balanced-gf3^2-power"),
        ],
    )
    def test_verify_failure_exit_code_and_counterexample(
        self, tmp_path, refuted_code, capsys, balanced, family, counterexample
    ):
        path = str(construct(tmp_path, "balanced", *balanced)) if balanced else refuted_code
        capsys.readouterr()
        assert run("verify", "--code", path, *family, "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["correcting"] is False
        assert report["counterexample"] == counterexample
        assert report["witness"] is not None

    def test_verify_code_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # 1,100 symbols: a recursive walk would raise RecursionError, an
        # internal error with no verdict
        path = tmp_path / "long.json"
        path.write_text(json.dumps(serialize.code_to_json(long_code())))
        assert run("verify", "--code", str(path)) == 0
        assert "correcting: True" in capsys.readouterr().out
        # pattern lists, walked as one trie over index ranges of the sorted
        # list: single erasures are corrected, and the last two symbols'
        # first coordinates cancel
        pats = tmp_path / "pats.json"
        single = [[int(k == i) for k in range(LONG)] for i in (0, LONG - 1, 550)]
        last_two = [int(k >= LONG - 2) for k in range(LONG)]
        for listed, rc in ((single, 0), ([single[0], last_two], 1)):
            pats.write_text(json.dumps(listed))
            assert run("verify", "--code", str(path), "--patterns", str(pats)) == rc

    def test_ten_thousand_symbols_in_bounded_time_and_memory(self, tmp_path):
        # full:1's trie ends each path where the budget is spent, so the walk
        # is linear in the length: each child takes under 1 s on 2 cores,
        # and a walk of every level of every leaf about 26 s.  full:3 fails,
        # the last two symbols' first coordinates cancelling; the witness is
        # read from the pattern's erased columns (the decoder's n^2 tagged
        # columns peaked near 1 GiB)
        path = tmp_path / "long10k.json"
        path.write_text(json.dumps(serialize.code_to_json(long_code(10_000))))
        assert run_child("verify", "--code", str(path), timeout=10)[0] == 0
        rc, out, rss = run_child("verify", "--code", str(path), "--family", "full:3", "--json", timeout=10)
        assert rc == 1
        report = json.loads(out)
        assert {i: v for i, v in enumerate(report["counterexample"]) if v} == {9998: 1, 9999: 2}
        assert sum(1 for w in report["witness"] if any(map(any, w))) == 2
        assert rss <= 200, rss

    def test_verify_pattern_file(self, tmp_path):
        out = tmp_path / "code.json"
        run("construct", "length2", "--p", "2", "--alpha", "2", "--out", str(out))
        pats = tmp_path / "pats.json"
        pats.write_text(json.dumps([[1, 1], [2, 0], [0, 2]]))
        assert run("verify", "--code", str(out), "--patterns", str(pats)) == 0

    @pytest.fixture
    def refuted_code(self, tmp_path):
        # H = [1, 1]: the codewords are (x, x), so a pattern fails once it
        # erases both symbols' first coordinates
        ext = tower(2, 1, 2)
        omega = b_symmetric_basis(ext, find_quadratic_root(ext))
        bad = code_from_rows(ext, [[ext.one(), ext.one()]], omega, FullFamily(2, 2, 2))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(serialize.code_to_json(bad)))
        return str(path)

    def test_pattern_file_reports_its_first_failure_from_one_walk(
        self, tmp_path, refuted_code, capsys, monkeypatch
    ):
        # unsorted, with duplicates: (1, 2) is the lex-first failure, (2, 2)
        # the first in file order
        from hierasure import modp

        walks = []
        real = modp.walk
        monkeypatch.setattr(modp, "walk", lambda *args: walks.append(args) or real(*args))
        pats = tmp_path / "pats.json"
        pats.write_text(json.dumps([[2, 0], [2, 2], [1, 2], [1, 2], [0, 1], [2, 2]]))
        assert run("verify", "--code", refuted_code, "--patterns", str(pats), "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"correcting": False, "counterexample": [2, 2], "patterns_checked": 6}
        assert len(walks) == 1

    @pytest.mark.parametrize(
        "pats,error",
        [
            ([[2, 2], [3, 0], [1, 2, 0]], "error: pattern (3, 0): entries must lie in [0, alpha=2]\n"),
            ([[2, 2], [1, 2, 0], [3, 0]], "error: pattern length does not match the code length\n"),
        ],
        ids=["entry", "length"],
    )
    def test_pattern_file_with_an_invalid_pattern_exits_2(self, tmp_path, refuted_code, capsys, pats, error):
        path = tmp_path / "pats.json"
        path.write_text(json.dumps(pats))
        assert run("verify", "--code", refuted_code, "--patterns", str(path)) == 2
        assert capsys.readouterr().err == error

    @pytest.mark.parametrize(
        "kind,args",
        [
            ("trace", ["--p", "2", "--alpha", "2", "--n", "3", "--m", "2"]),
            ("n2ext", ["--p", "2", "--alpha", "2"]),
            ("gabidulin", ["--p", "2", "--alpha", "2", "--n", "2", "--r", "1"]),
            pytest.param("balanced", ["--p", "3", "--e", "2", "--alpha", "4", "--n", "4"], id="balanced-gf3^2"),
            pytest.param("balanced", ["--p", "11", "--alpha", "8", "--n", "8"], id="balanced-gf11^8"),
            pytest.param("balanced", ["--p", "65521", "--alpha", "4", "--n", "4"], id="balanced-gf65521^4"),
            pytest.param("length2", ["--p", "3", "--e", "2", "--alpha", "2"], id="length2-gf3^2"),
            # two doubling steps of the mirrored basis, each subfield
            # representative in closed form
            pytest.param("length2", ["--p", "65521", "--alpha", "8"], id="length2-gf65521^8"),
            # m = 5 > alpha = 3: totals up to 4, each column erased in up to
            # alpha coordinates
            pytest.param("gv", ["--p", "2", "--alpha", "3", "--n", "8", "--r", "3", "--m", "5", "--seed", "0"],
                         id="gv-m-above-alpha"),
        ],
    )
    def test_other_constructions(self, tmp_path, kind, args):
        out = str(construct(tmp_path, kind, *args))
        assert run("verify", "--code", out) == 0
        assert run("verify", "--code", out, "--all-patterns") == 0

    def test_gv_construction(self, tmp_path):
        out = tmp_path / "code.json"
        assert (
            run(
                "construct", "gv", "--p", "5", "--alpha", "2",
                "--n", "3", "--r", "2", "--m", "1", "--out", str(out),
            )
            == 0
        )
        assert run("verify", "--code", str(out)) == 0

    @pytest.mark.parametrize(
        "kind,args,rc,prefixes",
        [
            # GF(2^3) is below the existence threshold at n = 12: the library
            # warns, then the search gives up
            pytest.param("gv", ["--p", "2", "--alpha", "3", "--n", "12", "--r", "3", "--m", "5", "--seed", "0"], 1,
                         ["warning: field size 2 ", "construction failed: "], id="gv-n12"),
            # GF(5) has exactly n = 5 elements: the default nodes take the zero node
            pytest.param("balanced", ["--p", "5", "--alpha", "2", "--n", "5"], 0,
                         ["warning: field has exactly n elements"], id="balanced-q5"),
        ],
    )
    def test_warnings_and_failures_are_one_line_each(self, tmp_path, capsys, kind, args, rc, prefixes):
        # stderr holds exactly these lines, with no file path, line number or
        # source line
        out = tmp_path / "code.json"
        assert run("construct", kind, *args, "--out", str(out)) == rc
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(prefixes), lines
        assert all(line.startswith(prefix) for line, prefix in zip(lines, prefixes)), lines
        assert out.exists() == (rc == 0)

    def test_power_with_explicit_nodes(self, tmp_path):
        out = tmp_path / "code.json"
        assert (
            run(
                "construct", "power", "--p", "5", "--alpha", "4",
                "--n", "2", "--nu", "1,2", "--out", str(out),
            )
            == 0
        )
        assert run("verify", "--code", str(out)) == 0

    def test_all_patterns_audit_flag(self, tmp_path):
        out = tmp_path / "code.json"
        run("construct", "length2", "--p", "3", "--alpha", "2", "--out", str(out))
        assert run("verify", "--code", str(out), "--all-patterns") == 0

    def test_udm_build_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["udm", "build", "--p", "5", "--alpha", "2", "--m", "3", "--n", "4"]
        run(*argv, "--out", str(a))
        run(*argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_construct_missing_required_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run("construct", "gabidulin", "--p", "2", "--alpha", "3", "--out", str(out)) == 2
        assert "requires --n" in capsys.readouterr().err

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["construct", "balanced", "--p", "5", "--alpha", "4", "--n", "4", "--seed", "7"]
        run(*argv, "--out", str(a))
        run(*argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        ma = json.loads((tmp_path / "a.json.manifest.json").read_text())
        assert ma["seed"] == 7
        assert ma["parameters"]["n"] == 4

    def test_parameter_error_exits_2(self, capsys):
        assert run("construct", "length2", "--p", "4", "--alpha", "2", "--out", "/tmp/x.json") == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("construct", "mystery", "--p", "2", "--alpha", "2", "--out", "/tmp/x.json")
        assert exc.value.code == 2


class TestDecodeCommand:
    def test_round_trip(self, tmp_path, capsys):
        code = length2_code(tower(2, 1, 2))
        word = tuple(kernel_basis(code)[0])
        rw = apply_erasure(word, (1, 1), code.omega)
        code_path = tmp_path / "code.json"
        rw_path = tmp_path / "rw.json"
        code_path.write_text(json.dumps(serialize.code_to_json(code)))
        rw_path.write_text(json.dumps(serialize.received_to_json(rw)))
        assert run("decode", "--code", str(code_path), "--received", str(rw_path), "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "decoded"
        assert report["codeword"] == serialize.codeword_to_json(word)

    @pytest.mark.parametrize(
        "tower,pattern,tampered",
        [
            (("--p", "3", "--e", "2", "--alpha", "4", "--n", "4"), (2, 0, 0, 0), (3, 0)),
            # every extension product is one packed multiply of 8 lanes
            (("--p", "11", "--alpha", "8", "--n", "8"), (2, 2, 2, 0, 0, 0, 0, 0), (7, 0)),
            # n * alpha * e = 16 products of (p - 1)^2 each: the right-hand side
            # sums the 15 known digits in the widest lanes of the suite
            (("--p", "65521", "--alpha", "4", "--n", "4"), (1, 0, 0, 0), (3, 3)),
        ],
        ids=["gf3^2", "gf11^8", "gf65521^4"],
    )
    def test_honest_word_decodes_and_tampered_word_is_inconsistent(
        self, tmp_path, capsys, tower, pattern, tampered
    ):
        # the codeword is the sum of the kernel basis; the tampered word moves
        # known coordinate j of symbol i by one
        code_path = construct(tmp_path, "balanced", *tower)
        code = serialize.code_from_json(json.loads(code_path.read_text()))
        word = tuple(sum(s[1:], s[0]) for s in zip(*kernel_basis(code)))
        honest = apply_erasure(word, pattern, code.omega)
        known = [list(s) for s in honest.known]
        i, j = tampered
        known[i][j] += code.ext.base.one()
        bad = ReceivedWord(code.omega, honest.pattern, tuple(map(tuple, known)))
        rw_path = tmp_path / "rw.json"
        for rw, rc, want in (
            (honest, 0, {"status": "decoded", "codeword": serialize.codeword_to_json(word)}),
            (bad, 1, {"status": "inconsistent"}),
        ):
            rw_path.write_text(json.dumps(serialize.received_to_json(rw)))
            capsys.readouterr()
            assert run("decode", "--code", str(code_path), "--received", str(rw_path), "--json") == rc
            report = json.loads(capsys.readouterr().out)
            assert {k: report[k] for k in want} == want

    def test_ambiguous_exits_1(self, tmp_path):
        ext = tower(2, 1, 2)
        omega = b_symmetric_basis(ext, find_quadratic_root(ext))
        bad = code_from_rows(ext, [[ext.one(), ext.one()]], omega, FullFamily(2, 2, 2))
        rw = apply_erasure((ext.zero(), ext.zero()), (1, 1), omega)
        code_path = tmp_path / "code.json"
        rw_path = tmp_path / "rw.json"
        code_path.write_text(json.dumps(serialize.code_to_json(bad)))
        rw_path.write_text(json.dumps(serialize.received_to_json(rw)))
        assert run("decode", "--code", str(code_path), "--received", str(rw_path)) == 1


class TestDecodeTowerReuse:
    """A received word that spells the code's tower and basis reuses them."""

    @pytest.fixture
    def files(self, tmp_path):
        code_path = tmp_path / "code.json"
        run("construct", "balanced", "--p", "5", "--alpha", "4", "--n", "4", "--out", str(code_path))
        code = serialize.code_from_json(json.loads(code_path.read_text()))
        word = kernel_basis(code)[0]
        t = list(maximal_patterns(code.claim))[-1]
        payload = serialize.received_to_json(apply_erasure(word, t, code.omega))
        return code_path, payload, serialize.codeword_to_json(word)

    def decode(self, tmp_path, code_path, payload, capsys):
        rw_path = tmp_path / "rw.json"
        rw_path.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = run("decode", "--code", str(code_path), "--received", str(rw_path), "--json")
        return rc, capsys.readouterr()

    @pytest.fixture
    def inits(self, monkeypatch):
        # count field and basis constructions, as the load test counts inserts
        made = []
        for cls in (fields.ExtSpec, fields.OrderedBasis):
            def counted(obj, *args, _init=cls.__init__, _name=cls.__name__):
                made.append(_name)
                _init(obj, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        return made

    def test_one_tower_and_basis_per_call(self, tmp_path, files, inits, capsys):
        code_path, payload, word = files
        rc, out = self.decode(tmp_path, code_path, payload, capsys)
        assert rc == 0 and json.loads(out.out)["codeword"] == word
        assert sorted(inits) == ["ExtSpec", "OrderedBasis"]

    def test_coefficient_spelled_plus_p_loads_its_own_tower(self, tmp_path, files, inits, capsys):
        # 5 means 0 in the base modulus, so the JSON differs but the tower does not
        code_path, payload, word = files
        payload["field"]["modulus"][0] += 5
        rc, out = self.decode(tmp_path, code_path, payload, capsys)
        assert rc == 0 and json.loads(out.out) == {"codeword": word, "solution_space_dim": 0, "status": "decoded"}
        assert sorted(inits) == ["ExtSpec", "ExtSpec", "OrderedBasis", "OrderedBasis"]

    def test_one_omega_digit_off_loads_in_full(self, tmp_path, files, inits, capsys):
        # omega_0 = 1 + y^2 instead of 1 is still a basis, but not the
        # code's: the word loads its own tower and basis, and decode refuses it
        code_path, payload, _ = files
        assert payload["omega"][0] == [[1], [0], [0], [0]]
        payload["omega"][0][2][0] = 1
        rc, out = self.decode(tmp_path, code_path, payload, capsys)
        assert (rc, out.err, out.out) == (2, "error: received word uses a different basis than the code\n", "")
        assert sorted(inits) == ["ExtSpec", "ExtSpec", "OrderedBasis", "OrderedBasis"]

    def test_reordered_keys_reuse_the_tower(self, tmp_path, files, inits, capsys):
        # a JSON object's keys have no order: "field" and "ext" written in
        # reverse still spell the code's tower
        code_path, payload, word = files
        for key in ("field", "ext"):
            payload[key] = dict(reversed(payload[key].items()))
        assert list(payload["field"]) == ["modulus", "e", "p"]
        rc, out = self.decode(tmp_path, code_path, payload, capsys)
        assert rc == 0 and json.loads(out.out)["codeword"] == word
        assert sorted(inits) == ["ExtSpec", "OrderedBasis"]

    @pytest.mark.parametrize(
        "edit,rc,error",
        [
            (lambda rw: rw["field"].update(extra=1), 0, ""),
            (lambda rw: rw["ext"].update(extra=1), 0, ""),
            (lambda rw: rw["field"]["modulus"].__setitem__(-1, "1"), 2,
             "error: modulus coefficient must be an integer, got '1'\n"),
            (lambda rw: rw["ext"]["modulus"][-1].__setitem__(0, "1"), 2,
             "error: extension modulus must be monic of degree alpha\n"),
            (lambda rw: rw["omega"][0][0].__setitem__(0, "1"), 2,
             "error: invalid coefficient vector for GF(5^4)/GF(5): [['1'], [0], [0], [0]]\n"),
            (lambda rw: rw.update(omega=[[c] for c in rw["omega"]]), 2,
             "error: invalid coefficient vector for GF(5^4)/GF(5): [[[1], [0], [0], [0]]]\n"),
            (lambda rw: rw["omega"].append(rw["omega"][0]), 2, "error: need 4 elements, got 5\n"),
            (lambda rw: rw["field"]["modulus"].append(0), 2, "error: modulus must be monic of degree e\n"),
            (lambda rw: rw["field"]["modulus"].__setitem__(0, math.nan), 2,
             "error: modulus coefficient must be an integer, got nan\n"),
            (lambda rw: rw["ext"]["modulus"][0].__setitem__(0, math.nan), 2,
             "error: extension modulus has invalid coefficients\n"),
        ],
        ids=[
            "field-extra-key", "ext-extra-key", "field-modulus-string", "ext-modulus-string", "omega-string",
            "omega-nested-deeper", "omega-extra-element", "field-modulus-extra-coefficient", "field-modulus-nan",
            "ext-modulus-nan",
        ],
    )
    def test_near_spellings_load_their_own_tower(self, tmp_path, files, inits, capsys, edit, rc, error):
        # a word that is not exactly the code's JSON, by an extra key, a
        # list's length or the type of one value, loads in full: a well-formed one decodes
        # on its own tower and basis, a malformed one fails as such
        code_path, payload, word = files
        edit(payload)
        got, out = self.decode(tmp_path, code_path, payload, capsys)
        assert (got, out.err) == (rc, error)
        if rc == 0:
            assert json.loads(out.out)["codeword"] == word
            assert sorted(inits) == ["ExtSpec", "ExtSpec", "OrderedBasis", "OrderedBasis"]
        else:
            assert out.out == ""

    @pytest.mark.parametrize(
        "edit,error",
        [
            (lambda rw: rw["ext"].update(modulus=serialize._tower_to_json(make_tower(5, 1, 4, 1))["ext"]["modulus"]),
             "error: received word uses a different basis than the code\n"),
            (lambda rw: rw.update(omega=rw["omega"][1:] + rw["omega"][:1]),
             "error: received word uses a different basis than the code\n"),
            (lambda rw: rw.pop("ext"), "error: malformed received word payload: missing key 'ext'\n"),
            (lambda rw: rw["field"].update(p=5.0), "error: characteristic must be an integer, got 5.0\n"),
            (lambda rw: rw["omega"][0][0].__setitem__(0, True),
             "error: invalid coefficient vector for GF(5^4)/GF(5): [[True], [0], [0], [0]]\n"),
            # a 1 spelled 1.0 or true equals 1 in Python, but the word is
            # not the code's JSON: it loads on its own and fails as such
            (lambda rw: rw["field"]["modulus"].__setitem__(-1, 1.0),
             "error: modulus coefficient must be an integer, got 1.0\n"),
            (lambda rw: rw["field"]["modulus"].__setitem__(-1, True),
             "error: modulus coefficient must be an integer, got True\n"),
            (lambda rw: rw["ext"]["modulus"][-1].__setitem__(0, 1.0),
             "error: extension modulus has invalid coefficients\n"),
            (lambda rw: rw["ext"]["modulus"][-1].__setitem__(0, True),
             "error: extension modulus has invalid coefficients\n"),
            (lambda rw: rw["omega"][0][0].__setitem__(0, 1.0),
             "error: invalid coefficient vector for GF(5^4)/GF(5): [[1.0], [0], [0], [0]]\n"),
        ],
        ids=[
            "ext-modulus", "permuted-omega", "no-ext", "p-float", "omega-bool",
            "field-modulus-float", "field-modulus-bool", "ext-modulus-float", "ext-modulus-bool", "omega-float",
        ],
    )
    def test_mismatch_exits_2(self, tmp_path, files, capsys, edit, error):
        code_path, payload, _ = files
        edit(payload)
        rc, out = self.decode(tmp_path, code_path, payload, capsys)
        assert (rc, out.err, out.out) == (2, error, "")


class TestParserReuse:
    def test_second_call_sees_only_its_own_options(self, tmp_path):
        code = tmp_path / "code.json"
        run("construct", "length2", "--p", "3", "--alpha", "2", "--out", str(code))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("verify", "--code", str(code), "--all-patterns", "--out", str(a)) == 0
        assert run("verify", "--code", str(code), "--out", str(b)) == 0
        manifest = json.loads((tmp_path / "b.json.manifest.json").read_text())
        assert manifest["parameters"] == {
            "command": "verify", "code": str(code), "all_patterns": False, "out": str(b),
        }
        fresh = tmp_path / "fresh.json"
        assert run_child("verify", "--code", str(code), "--out", str(fresh), timeout=60)[0] == 0
        assert b.read_bytes() == fresh.read_bytes()
        fresh_manifest = json.loads((tmp_path / "fresh.json.manifest.json").read_text())
        assert fresh_manifest["parameters"] == {**manifest["parameters"], "out": str(fresh)}


class TestUdmCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--p", "3", "--alpha", "2", "--m", "3", "--n", "3"),
            # the classical (8, 4, 5) set
            ("--p", "7", "--alpha", "4", "--m", "5", "--n", "8"),
            # each entry is a pair of GF(3) digits, so the walk takes unit
            # e = 2 vectors per row
            ("--p", "3", "--e", "2", "--alpha", "3", "--m", "4", "--n", "6"),
        ],
        ids=["gf3", "gf7", "gf3^2"],
    )
    def test_build_then_verify(self, tmp_path, capsys, argv):
        out = tmp_path / "udm.json"
        assert run("udm", "build", *argv, "--out", str(out)) == 0
        assert run("udm", "verify", "--udm", str(out)) == 0
        # entry (0, 0) of matrix 0 set to 0 makes that matrix's first row
        # zero, so every pattern that takes it is dependent
        u = json.loads(out.read_text())
        row = u["matrices"][0][0]
        unit = [1] + [0] * (len(row[0]) - 1)
        assert row == [unit] + [[0] * len(unit)] * (len(row) - 1), row
        row[0] = [0] * len(unit)
        out.write_text(json.dumps(u))
        capsys.readouterr()
        assert run("udm", "verify", "--udm", str(out), "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False and report["counterexample"][0] >= 1, report

    def test_build_json_prints_outcome(self, tmp_path, capsys):
        out = tmp_path / "udm.json"
        argv = ("udm", "build", "--p", "3", "--alpha", "2", "--m", "3", "--n", "3")
        assert run(*argv, "--out", str(out), "--json") == 0
        assert capsys.readouterr().out == json.dumps({"n": 3}, sort_keys=True) + "\n"
        manifest = json.loads((tmp_path / "udm.json.manifest.json").read_text())
        assert manifest["outcome"] == {"n": 3}

    def test_verify_detects_failure(self, tmp_path, capsys):
        from hierasure import UdmSet
        from towers import field

        f = field(2, 1)
        one, zero = f.one(), f.zero()
        ident = ((one, zero), (zero, one))
        u = UdmSet(f, 2, 2, (ident, ident))
        path = tmp_path / "udm.json"
        path.write_text(json.dumps(serialize.udms_to_json(u)))
        assert run("udm", "verify", "--udm", str(path), "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["counterexample"] == [1, 1]

    def test_verify_text_names_the_counterexample(self, tmp_path, capsys):
        from hierasure import UdmSet
        from towers import field

        f = field(2, 1)
        one, zero = f.one(), f.zero()
        ident = ((one, zero), (zero, one))
        path = tmp_path / "udm.json"
        path.write_text(json.dumps(serialize.udms_to_json(UdmSet(f, 2, 2, (ident, ident)))))
        assert run("udm", "verify", "--udm", str(path)) == 1
        assert capsys.readouterr().out == "universally decodable: False\ncounterexample pattern: [1, 1]\n"


class TestBoundsCommands:
    def test_gv(self, capsys):
        assert run("bounds", "gv", "--n", "3", "--m", "1", "--alpha", "2", "--r", "2", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"base": 4, "exponent_denominator": 1, "q_min": 5}

    def test_singleton(self, capsys):
        assert run("bounds", "singleton", "--n", "2", "--k", "1", "--m", "4", "--alpha", "2", "--json") == 0
        assert json.loads(capsys.readouterr().out) == {"m_prime": 2, "ok": False}

    def test_rell(self, capsys):
        assert run("bounds", "rell", "--n", "3", "--m", "1", "--alpha", "1", "--q", "2", "--json") == 0
        assert json.loads(capsys.readouterr().out) == {"loose": 16, "tight": 10}

    def test_asymptotic(self, capsys):
        assert run("bounds", "asymptotic", "--regime", "n_large", "--c1", "1", "--c2", "1", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(4.0)

    def test_out_writes_a_manifest(self, tmp_path):
        out = tmp_path / "gv.json"
        assert run("bounds", "gv", "--n", "3", "--m", "1", "--alpha", "2", "--r", "2", "--out", str(out)) == 0
        report = {"base": 4, "exponent_denominator": 1, "q_min": 5}
        assert json.loads(out.read_text()) == report
        manifest = json.loads((tmp_path / "gv.json.manifest.json").read_text())
        assert manifest["command"] == "bounds gv"
        assert manifest["parameters"] == {
            "command": "bounds", "which": "gv", "n": 3, "m": 1, "alpha": 2, "r": 2, "out": str(out),
        }
        assert (manifest["seed"], manifest["outcome"]) == (0, report)


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self):
        # ``python -m hierasure`` works from a checkout, with only src on the path
        rc, out, _ = run_child("bounds", "--help", timeout=60)
        assert rc == 0 and out.startswith("usage: hierasure bounds")


class TestDemo:
    @pytest.mark.parametrize(
        "argv",
        [("storage-straggler", "--seed", "3"), ("storage-straggler",), ("check-node",)],
        ids=["storage-straggler-seed3", "storage-straggler", "check-node"],
    )
    def test_scenario_round_trips(self, capsys, argv):
        assert run("demo", *argv) == 0
        assert "round trip exact: True" in capsys.readouterr().out

    def test_check_node_scenario(self, tmp_path, capsys):
        assert run("demo", "check-node", "--seed", "1", "--out", str(tmp_path / "demo")) == 0
        assert (tmp_path / "demo" / "code.json").exists()
        assert (tmp_path / "demo" / "received.json").exists()
        assert "round trip exact: True" in capsys.readouterr().out

    def test_corrupted_variant_reports(self, capsys):
        for scenario in ("check-node", "storage-straggler"):
            assert run("demo", scenario, "--seed", "1", "--corrupt") == 0
            assert "decode: inconsistent" in capsys.readouterr().out

    def test_demo_determinism(self, capsys):
        run("demo", "storage-straggler", "--seed", "9")
        first = capsys.readouterr().out
        run("demo", "storage-straggler", "--seed", "9")
        second = capsys.readouterr().out
        assert first == second

    def test_json_flag_rejected(self, capsys):
        # the walkthrough has no machine output, so --json is a usage error
        with pytest.raises(SystemExit) as exc:
            run("demo", "check-node", "--json")
        assert exc.value.code == 2
        assert "--json" in capsys.readouterr().err


@pytest.fixture
def code_file(tmp_path):
    out = tmp_path / "code.json"
    run("construct", "length2", "--p", "2", "--alpha", "2", "--out", str(out))
    return str(out)


@pytest.fixture
def received_file(tmp_path, code_file):
    code = serialize.code_from_json(json.loads(open(code_file).read()))
    word = kernel_basis(code)[0]
    path = tmp_path / "rw.json"
    path.write_text(json.dumps(serialize.received_to_json(apply_erasure(word, (1, 1), code.omega))))
    return str(path)


class TestInputBoundary:
    """Bad input exits 2 with one ``error:`` line and no traceback."""

    def assert_usage_error(self, capsys, rc):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_internal_error_exits_2_without_a_traceback(self, code_file, capsys, monkeypatch):
        # an unexpected exception gives no verdict, so it must not exit 1,
        # the code of a refuted claim
        from hierasure import cli

        def fault(*args, **kwargs):
            raise RuntimeError("no walk")

        monkeypatch.setattr(cli, "is_correcting", fault)
        capsys.readouterr()
        assert run("verify", "--code", code_file) == 2
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: no walk\n"
        assert "Traceback" not in captured.out + captured.err

    def test_missing_code_file(self, tmp_path, capsys):
        rc = run("verify", "--code", str(tmp_path / "absent.json"))
        self.assert_usage_error(capsys, rc)

    def test_missing_received_file(self, tmp_path, code_file, capsys):
        rc = run("decode", "--code", code_file, "--received", str(tmp_path / "absent.json"))
        self.assert_usage_error(capsys, rc)

    def test_missing_patterns_file(self, tmp_path, code_file, capsys):
        rc = run("verify", "--code", code_file, "--patterns", str(tmp_path / "absent.json"))
        self.assert_usage_error(capsys, rc)

    def test_code_not_json(self, tmp_path, capsys):
        path = tmp_path / "code.json"
        path.write_text("not json at all")
        self.assert_usage_error(capsys, run("verify", "--code", str(path)))

    def test_received_not_json(self, tmp_path, code_file, capsys):
        path = tmp_path / "rw.json"
        path.write_bytes(b"\xff\xfe{")
        self.assert_usage_error(capsys, run("decode", "--code", code_file, "--received", str(path)))

    def test_code_missing_key(self, tmp_path, capsys):
        path = tmp_path / "code.json"
        path.write_text('{"a": 1}')
        self.assert_usage_error(capsys, run("verify", "--code", str(path)))

    def test_received_missing_key(self, tmp_path, code_file, capsys):
        path = tmp_path / "rw.json"
        path.write_text('{"a": 1}')
        self.assert_usage_error(capsys, run("decode", "--code", code_file, "--received", str(path)))

    def test_received_wrong_shape(self, tmp_path, code_file, received_file, capsys):
        payload = json.loads(open(received_file).read())
        payload["known"] = 7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        self.assert_usage_error(capsys, run("decode", "--code", code_file, "--received", str(path)))

    def test_patterns_wrong_shape(self, tmp_path, code_file, capsys):
        path = tmp_path / "pats.json"
        path.write_text('[[1, "x"]]')
        self.assert_usage_error(capsys, run("verify", "--code", code_file, "--patterns", str(path)))

    @pytest.mark.parametrize("text", ["{}", '"x"', '["x"]', '[{"0": 1}]'])
    def test_patterns_not_a_list(self, tmp_path, code_file, capsys, text):
        # iterated as given, {} would verify as an empty list and exit 0
        path = tmp_path / "pats.json"
        path.write_text(text)
        assert run("verify", "--code", code_file, "--patterns", str(path)) == 2
        assert capsys.readouterr().err == "error: malformed patterns payload: expected a list\n"

    @pytest.mark.parametrize("key,value,kind", [("H", {}, "code"), ("H", [{}], "code"), ("omega", {}, "basis")])
    def test_code_object_for_a_list(self, tmp_path, code_file, capsys, key, value, kind):
        # iterated as given, "H": {} would load as a 0-row check matrix and
        # exit 1 with a witness
        payload = json.loads(Path(code_file).read_text())
        payload[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("verify", "--code", str(path)) == 2
        assert capsys.readouterr().err == f"error: malformed {kind} payload: expected a list\n"

    @pytest.mark.parametrize("pattern", ["[[1.5, 1]]", '[["2", 0]]', "[[true, 0]]", "[[-1, 0]]"])
    def test_patterns_non_integer_or_negative_entry(self, tmp_path, code_file, capsys, pattern):
        # a float or string used to be truncated by int() and verified as a real pattern
        path = tmp_path / "pats.json"
        path.write_text(pattern)
        self.assert_usage_error(capsys, run("verify", "--code", code_file, "--patterns", str(path)))

    @pytest.mark.parametrize("t", [[1.7, 1], ["1", 1], [True, 1]])
    def test_received_non_integer_erasure_count(self, tmp_path, code_file, received_file, capsys, t):
        payload = json.loads(open(received_file).read())
        payload["t"] = t
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        self.assert_usage_error(capsys, run("decode", "--code", code_file, "--received", str(path)))

    @pytest.mark.parametrize("field,value", [("n", 4.0), ("alpha", 4.0), ("n", "4"), ("alpha", True)])
    @pytest.mark.parametrize("extra", [(), ("--all-patterns",)])
    def test_claim_non_integer_field(self, tmp_path, capsys, field, value, extra):
        # "n": 4.0 used to pass the length check and end in a TypeError traceback
        path = tmp_path / "code.json"
        run("construct", "balanced", "--p", "5", "--alpha", "4", "--n", "4", "--out", str(path))
        payload = json.loads(path.read_text())
        payload["claim"][field] = value
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        self.assert_usage_error(capsys, run("verify", "--code", str(path), *extra))

    def test_udm_missing_key(self, tmp_path, capsys):
        path = tmp_path / "u.json"
        path.write_text('{"a": 1}')
        self.assert_usage_error(capsys, run("udm", "verify", "--udm", str(path)))

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, code_file, capsys, threads):
        # verify has no --threads flag: the checks never ran in threads
        with pytest.raises(SystemExit) as exc:
            run("verify", "--code", code_file, "--threads", threads)
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.fixture
    def balanced_payload(self, tmp_path):
        path = tmp_path / "balanced.json"
        run("construct", "balanced", "--p", "5", "--alpha", "4", "--n", "4", "--out", str(path))
        return json.loads(path.read_text())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c.update(n=4.0),
            lambda c: c["field"].update(e=True),
            lambda c: c["field"].update(p=5.0),
            lambda c: c["field"].update(modulus=[0, 1.0]),
            lambda c: c["ext"].update(alpha=4.0),
            lambda c: c["ext"]["modulus"][-1].__setitem__(0, True),
            lambda c: c["H"][0][0].__setitem__(0, [True]),
            lambda c: c["omega"][0][0].__setitem__(0, True),
        ],
        ids=["n-float", "e-bool", "p-float", "modulus-float", "alpha-float", "ext-modulus-bool", "H-bool", "omega-bool"],
    )
    def test_code_non_integer_number(self, tmp_path, capsys, balanced_payload, edit):
        # all but the p and alpha floats used to load, 4.0 passing as a
        # length and True as the digit 1
        edit(balanced_payload)
        path = tmp_path / "code.json"
        path.write_text(json.dumps(balanced_payload))
        capsys.readouterr()
        self.assert_usage_error(capsys, run("verify", "--code", str(path)))

    @pytest.mark.parametrize(
        "argv,edit,message",
        [
            # y^4 over GF(5)
            (("--p", "5", "--alpha", "4"), lambda c: c["ext"].update(modulus=[[0], [0], [0], [0], [1]]),
             "error: extension modulus is reducible over the base field\n"),
            # (x + 1)^2 over GF(2)
            (("--p", "2", "--e", "2", "--alpha", "2"), lambda c: c["field"].update(modulus=[1, 0, 1]),
             "error: modulus (1, 0, 1) is reducible over Z_2\n"),
        ],
        ids=["extension", "base"],
    )
    def test_code_reducible_modulus(self, tmp_path, capsys, argv, edit, message):
        path = tmp_path / "code.json"
        run("construct", "length2", *argv, "--out", str(path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = run("verify", "--code", str(path))
        assert (rc, capsys.readouterr().err) == (2, message)

    @pytest.mark.parametrize(
        "tower_args,coefficients",
        [
            (("--p", "2", "--e", "2", "--alpha", "2"), [[1, 0, 1], [1]]),
            (("--p", "3", "--e", "2", "--alpha", "2"), [[1], [0], [1], [1]]),
        ],
        ids=["gf2^2", "gf3^2"],
    )
    def test_extension_coefficient_of_the_wrong_length(self, tmp_path, capsys, tower_args, coefficients):
        # an element held as its alpha * e digits must still load only from
        # alpha coefficients of e digits each: these lists flatten to 4 digits
        code_path = construct(tmp_path, "length2", *tower_args)
        payload = json.loads(code_path.read_text())
        code = serialize.code_from_json(payload)
        word = serialize.received_to_json(apply_erasure(kernel_basis(code)[0], (1, 1), code.omega))
        bad_code = {**payload, "H": [[coefficients, *payload["H"][0][1:]]]}
        bad_word = {**word, "omega": [coefficients, *word["omega"][1:]]}
        paths = {}
        for name, value in [("code", payload), ("word", word), ("bad_code", bad_code), ("bad_word", bad_word)]:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(value))
        error = f"error: invalid coefficient vector for {code.ext!r}: {coefficients!r}\n"
        for argv in [
            ("verify", "--code", paths["bad_code"]),
            ("decode", "--code", paths["bad_code"], "--received", paths["word"]),
            ("decode", "--code", paths["code"], "--received", paths["bad_word"]),
        ]:
            capsys.readouterr()
            rc = run(*map(str, argv))
            assert (rc, capsys.readouterr().err) == (2, error), argv

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_received_non_integer_coefficient(self, tmp_path, code_file, received_file, capsys, value):
        payload = json.loads(open(received_file).read())
        payload["known"][1][0][0] = value
        path = tmp_path / "rw.json"
        path.write_text(json.dumps(payload))
        self.assert_usage_error(capsys, run("decode", "--code", code_file, "--received", str(path)))

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "length2", "--p", "2", "--alpha", "2", "--out", "{missing}/c.json"),
            ("udm", "build", "--p", "3", "--alpha", "2", "--m", "2", "--n", "3", "--out", "{missing}/u.json"),
            ("bounds", "singleton", "--n", "4", "--k", "2", "--m", "2", "--alpha", "2", "--out", "{missing}/b.json"),
            ("demo", "check-node", "--out", "{code}"),
        ],
    )
    def test_unwritable_out(self, tmp_path, code_file, capsys, argv):
        # a directory that does not exist, or a demo directory that is a file
        fill = {"missing": tmp_path / "missing_dir", "code": code_file}
        self.assert_usage_error(capsys, run(*(a.format(**fill) for a in argv)))

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--code", "{code}", "--family", "full:x"),
            ("verify", "--code", "{code}", "--family", "bounded:y"),
            ("construct", "balanced", "--p", "5", "--alpha", "4", "--n", "3", "--nu", "1,x", "--out", "{out}"),
            ("bounds", "asymptotic", "--regime", "alpha_large", "--c1", "abc"),
            ("bounds", "asymptotic", "--regime", "alpha_large", "--c1", "1/0"),
        ],
    )
    def test_malformed_number_in_flag(self, tmp_path, code_file, capsys, argv):
        fill = {"code": code_file, "out": tmp_path / "c.json"}
        self.assert_usage_error(capsys, run(*(a.format(**fill) for a in argv)))

    @pytest.mark.parametrize("family", ["balanced:3", "power:x", "power:"])
    def test_argument_to_a_family_that_takes_none(self, code_file, capsys, family):
        rc = run("verify", "--code", code_file, "--family", family)
        err = capsys.readouterr().err
        kind = family.partition(":")[0]
        assert rc == 2 and err == f"error: {kind} family takes no argument, got {family!r}\n", err

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "balanced", "--p", "5", "--alpha", "4", "--n", "-2"),
            ("construct", "balanced", "--p", "5", "--alpha", "4", "--n", "0"),
            ("construct", "power", "--p", "5", "--alpha", "4", "--n", "0"),
            ("construct", "power", "--p", "5", "--alpha", "4", "--n", "-2"),
            ("construct", "trace", "--p", "5", "--alpha", "2", "--m", "2", "--n", "0"),
        ],
    )
    def test_length_below_one(self, tmp_path, capsys, argv):
        # balanced used to slice its default nodes ("need exactly n=-2 nodes,
        # got 2") and power to count its cosets first
        out = tmp_path / "c.json"
        rc = run(*argv, "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2 and err == "error: need n >= 1\n", err
        assert not out.exists()

    def test_negative_gv_budget(self, tmp_path, capsys):
        # range(-5) is empty, so a negative budget would skip straight to the sweep
        out = tmp_path / "c.json"
        rc = run("construct", "gv", "--p", "2", "--alpha", "2", "--n", "4", "--r", "3", "--m", "1",
                 "--budget", "-5", "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2 and err == "error: need budget >= 0\n", err
        assert not out.exists()

    def test_singleton_dimension_above_length(self, capsys):
        # a length-4 code cannot have dimension 9; this used to print "ok: False"
        rc = run("bounds", "singleton", "--n", "4", "--k", "9", "--m", "1", "--alpha", "2")
        err = capsys.readouterr().err
        assert rc == 2 and err == "error: need k <= n\n", err

    @pytest.mark.parametrize(
        "edit,error",
        [
            (lambda c: c.update(H=[], n=-3), "code length must be at least 1, got -3"),
            (lambda c: c.update(H=[], n=0), "code length must be at least 1, got 0"),
            (lambda c: c.update(n=True), "code length must be an integer, got True"),
        ],
        ids=["negative", "zero", "bool-beside-rows"],
    )
    def test_code_length_is_a_positive_integer(self, tmp_path, code_file, capsys, edit, error):
        # "H": [] with "n": -3 or 0 used to load as a code of that length,
        # and an empty pattern list then verified it, exit 0; "n": true
        # beside real rows was reported as rows of unequal lengths
        payload = {**json.loads(Path(code_file).read_text()), "claim": None}
        edit(payload)
        path = tmp_path / "code.json"
        path.write_text(json.dumps(payload))
        patterns = tmp_path / "pats.json"
        patterns.write_text("[]")
        capsys.readouterr()
        rc = run("verify", "--code", str(path), "--patterns", str(patterns))
        assert (rc, capsys.readouterr().err) == (2, f"error: {error}\n")

    @pytest.mark.parametrize(
        "edit,error",
        [
            # "2" used to fail a comparison inside the loader, and 2.0 or true
            # was blamed on a family's alpha or m, or on the matrix shape
            (lambda u: u.update(alpha="2"), "alpha must be an integer, got '2'"),
            (lambda u: u.update(alpha=2.0), "alpha must be an integer, got 2.0"),
            (lambda u: u.update(alpha=True), "alpha must be an integer, got True"),
            (lambda u: u.update(m="2"), "m must be an integer, got '2'"),
            (lambda u: u.update(m=2.0), "m must be an integer, got 2.0"),
            (lambda u: u.update(m=True), "m must be an integer, got True"),
            (lambda u: u.update(m=1), "universal decodability needs m >= alpha"),
            (lambda u: u["matrices"][0].__setitem__(0, u["matrices"][0][0][:1]), "every matrix must be alpha x m"),
            # alpha 0, with m 0 and empty matrices, would pass as universally decodable
            (lambda u: u.update(EMPTY_UDMS, alpha=0), "alpha must be at least 1, got 0"),
            (lambda u: u.update(EMPTY_UDMS, alpha=-1), "alpha must be at least 1, got -1"),
        ],
        ids=[
            "alpha-str", "alpha-float", "alpha-bool", "m-str", "m-float", "m-bool", "m-below-alpha", "ragged",
            "alpha-zero", "alpha-negative",
        ],
    )
    def test_udm_payload_refusals(self, tmp_path, capsys, edit, error):
        path = tmp_path / "u.json"
        assert run("udm", "build", "--p", "3", "--alpha", "2", "--m", "2", "--n", "3", "--out", str(path)) == 0
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = run("udm", "verify", "--udm", str(path))
        assert (rc, capsys.readouterr().err) == (2, f"error: {error}\n")

    @pytest.mark.parametrize(
        "edit,error",
        [
            (lambda c: c["field"].update(p=4), "characteristic 4 is not prime"),
            (lambda c: c["ext"].update(alpha=0), "alpha must be at least 1"),
            (lambda c: c["H"].append(c["H"][0][:2]), "parity-check rows have unequal lengths"),
            (lambda c: (c.update(H=[]), c.pop("n")), "a 0-row parity check needs an explicit length"),
            (lambda c: c["claim"].update(n=5), "claimed family length does not match the code length"),
            (lambda c: c["claim"].update(alpha=2), "family alpha does not match the code's extension degree"),
        ],
        ids=["p-not-prime", "alpha-zero", "ragged-H", "no-rows-no-n", "claim-n", "claim-alpha"],
    )
    def test_code_payload_refusals(self, tmp_path, capsys, balanced_payload, edit, error):
        edit(balanced_payload)
        path = tmp_path / "code.json"
        path.write_text(json.dumps(balanced_payload))
        capsys.readouterr()
        rc = run("verify", "--code", str(path))
        assert (rc, capsys.readouterr().err) == (2, f"error: {error}\n")

    def test_claimless_code_needs_a_family_or_patterns(self, tmp_path, code_file, capsys):
        path = tmp_path / "code.json"
        path.write_text(json.dumps({**json.loads(Path(code_file).read_text()), "claim": None}))
        capsys.readouterr()
        rc = run("verify", "--code", str(path))
        assert (rc, capsys.readouterr().err) == (2, "error: code carries no claim; pass --family or --patterns\n")

    def test_bounded_radius_above_alpha(self, tmp_path, capsys):
        # r = 3 < n = 4 makes the family itself valid; only the code's
        # alpha = 2 refuses it
        path = construct(tmp_path, "balanced", "--p", "5", "--alpha", "2", "--n", "4")
        capsys.readouterr()
        rc = run("verify", "--code", str(path), "--family", "bounded:3")
        assert (rc, capsys.readouterr().err) == (2, "error: bounded family radius exceeds alpha\n")

    @pytest.mark.parametrize(
        "edit,error",
        [
            (lambda w: (w["t"].append(2), w["known"].append([])), "received word length does not match the code"),
            (lambda w: w["known"].pop(), "known suffixes do not match the pattern length"),
            (lambda w: w["known"][0].append(w["known"][0][0]), "suffix length must be alpha - t_i"),
        ],
        ids=["longer-word", "suffix-count", "suffix-length"],
    )
    def test_received_word_shape_refusals(self, tmp_path, code_file, received_file, capsys, edit, error):
        payload = json.loads(Path(received_file).read_text())
        edit(payload)
        path = tmp_path / "rw.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = run("decode", "--code", code_file, "--received", str(path))
        assert (rc, capsys.readouterr().err) == (2, f"error: {error}\n")

    def test_node_index_out_of_range(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        rc = run("construct", "balanced", "--p", "5", "--alpha", "4", "--n", "2", "--nu", "1,9", "--out", str(out))
        assert (rc, capsys.readouterr().err) == (2, "error: index 9 out of range for GF(5)\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,error",
        [
            (("gv", "--n", "1", "--m", "1", "--alpha", "2", "--r", "2"), "need n >= 2, alpha >= 1, r >= 1, m >= 0"),
            (("rell", "--n", "3", "--m", "1", "--alpha", "2", "--q", "1"), "need n >= 2, alpha >= 1, q >= 2, m >= 0"),
            (("singleton", "--n", "2", "--k", "3", "--m", "1", "--alpha", "2"), "need k <= n"),
            (("asymptotic", "--regime", "n_large", "--c2", "0"), "need c1 >= 0 and c2 > 0"),
        ],
        ids=["gv", "rell", "singleton", "asymptotic"],
    )
    def test_bounds_refusals(self, capsys, argv, error):
        rc = run("bounds", *argv)
        assert (rc, capsys.readouterr().err) == (2, f"error: {error}\n")

    def test_decode_still_works(self, code_file, received_file, capsys):
        assert run("decode", "--code", code_file, "--received", received_file, "--json") == 0
        assert json.loads(capsys.readouterr().out)["status"] == "decoded"


# each writing command, with {out} its --out: (argv, the artifacts it writes)
WRITERS = {
    "construct": (("construct", "length2", "--p", "2", "--alpha", "2", "--out", "{out}"), ["{out}"]),
    "verify": (("verify", "--code", "{code}", "--out", "{out}"), ["{out}"]),
    "decode": (("decode", "--code", "{code}", "--received", "{rw}", "--out", "{out}"), ["{out}"]),
    "bounds": (("bounds", "asymptotic", "--regime", "n_large", "--c1", "1", "--out", "{out}"), ["{out}"]),
    "udm": (("udm", "build", "--p", "3", "--alpha", "2", "--m", "2", "--n", "3", "--out", "{out}"), ["{out}"]),
    "demo": (
        ("demo", "check-node", "--seed", "1", "--out", "{out}"),
        ["{out}/code.json", "{out}/received.json", "{out}/decoded.json"],
    ),
}


class TestArtifactWrites:
    """Artifacts are rewritten in place, and a failed write is one ``error:`` line."""

    @staticmethod
    def writer(command, out, code_file, received_file):
        """The command's argv for --out out, its artifact paths and its manifest path."""
        argv, artifacts = WRITERS[command]
        fill = {"out": out, "code": code_file, "rw": received_file}
        manifest = out / "run.manifest.json" if command == "demo" else Path(f"{out}.manifest.json")
        return [a.format(**fill) for a in argv], [Path(a.format(**fill)) for a in artifacts], manifest

    @pytest.mark.parametrize("command", ["construct", "verify", "decode", "bounds"])
    @pytest.mark.parametrize("case", ["out-is-a-directory", "out-in-a-missing-directory", "manifest-is-a-directory"])
    def test_write_failure_is_one_error_line(self, tmp_path, code_file, received_file, capsys, command, case):
        out = tmp_path / ("missing" if case == "out-in-a-missing-directory" else "") / "report.json"
        argv, _, manifest = self.writer(command, out, code_file, received_file)
        failed = manifest if case == "manifest-is-a-directory" else out
        if case != "out-in-a-missing-directory":
            failed.mkdir()
        capsys.readouterr()
        rc = run(*argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: cannot write {failed}: ") and captured.err.count("\n") == 1, captured.err
        assert "Traceback" not in captured.out + captured.err
        if case == "manifest-is-a-directory":
            # the artifact was written before its manifest failed
            assert json.loads(out.read_text())

    @pytest.mark.parametrize("command", sorted(WRITERS))
    def test_rewrites_longer_and_shorter_files_in_place(self, tmp_path, code_file, received_file, command):
        argv, fresh, _ = self.writer(command, tmp_path / "fresh", code_file, received_file)
        rc = run(*argv)
        out = tmp_path / "reused"
        if command == "demo":
            out.mkdir()
        argv, artifacts, manifest = self.writer(command, out, code_file, received_file)
        files = artifacts + [manifest]
        for junk in (b"\xff" * 65536, b"[0]"):
            for path in files:
                path.write_bytes(junk)
            inodes = [path.stat().st_ino for path in files]
            assert run(*argv) == rc
            for path, want in zip(artifacts, fresh):
                assert path.read_bytes() == want.read_bytes(), path
            assert json.loads(manifest.read_bytes())["command"].startswith(command)
            assert [path.stat().st_ino for path in files] == inodes

    def test_device_is_written_without_a_truncate(self):
        # ftruncate on /dev/null fails, so this passes only if it is skipped
        _write_json(Path(os.devnull), {"a": [1, 2]})

    def test_fifo_receives_the_text(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        try:
            _write_json(fifo, {"a": [1, 2]})
        finally:
            reader.join(10)
        assert got == [b'{\n  "a": [\n    1,\n    2\n  ]\n}\n']


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


ODD_TEXT = ["", "plain", "café αβ", "\U0001f600", "\ud800", 'say "hi"', "back\\slash",
            "\x00\x01\x1f\x7f", "tab\tnew\nline\r", "</script>", "  "]
ODD_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 0.1, 1.5, -2.25e-308, 5e-324]


def random_payload(rng, depth=0):
    kind = rng.randrange(11 if depth < 6 else 6)
    if kind == 0:
        return rng.choice(ODD_TEXT) + rng.choice(ODD_TEXT)
    if kind == 1:
        return rng.choice([0, -1, 7, 2**70, -(2**65), Colour.GREEN, True, False, None])
    if kind == 2:
        return rng.choice(ODD_FLOATS + [rng.uniform(-1e6, 1e6)])
    if kind == 3:
        return [rng.randrange(-50, 10**6) for _ in range(rng.randrange(5))]
    if kind == 4:
        return [[rng.randrange(11) for _ in range(rng.randrange(4))] for _ in range(rng.randrange(5))]
    if kind == 5:
        row = [rng.randrange(11) for _ in range(rng.randrange(1, 5))]
        row[rng.randrange(len(row))] = rng.choice([True, False, Colour.RED, 1.0, None, "1"])
        return rng.choice([row, [row], [[3], row], tuple(row)])
    if kind in (6, 7):
        return [random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 8:
        return tuple(random_payload(rng, depth + 1) for _ in range(rng.randrange(4)))
    return {rng.choice(ODD_TEXT) + str(k): random_payload(rng, depth + 1) for k in range(rng.randrange(5))}


def deep(levels):
    payload = [1, [2, 3]]
    for k in range(levels):
        payload = {"k": payload, "z": []} if k % 2 else [payload, {}]
    return payload


class TestJsonText:
    """The artifact encoder writes json.dumps(indent=2, sort_keys=True)'s text, byte for byte."""

    @staticmethod
    def expected(payload):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("seed", range(20))
    def test_random_payloads(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            payload = random_payload(rng)
            assert _json_text(payload) == self.expected(payload), payload

    @pytest.mark.parametrize(
        "payload",
        [
            {text: text for text in ODD_TEXT},
            ODD_FLOATS,
            {"floats": [[x] for x in ODD_FLOATS]},
            [1, True, 2],
            [[1, 2], [True]],
            [[0, 1], [], [2]],
            [[]],
            [Colour.RED, 2],
            {"colour": Colour.GREEN, "rows": [(1, Colour.RED)]},
            ((1, 2), (3,)),
            [],
            {},
            {"a": [], "b": {}, "c": [[], {}]},
            deep(30),
            "top-level text",
            17,
            None,
        ],
        ids=lambda payload: type(payload).__name__,
    )
    def test_edge_payloads(self, payload):
        assert _json_text(payload) == self.expected(payload)

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parent / "golden").rglob("*.json")), ids=lambda path: path.parent.name + "/" + path.name
    )
    def test_golden_files(self, path):
        text = path.read_text()
        payload = json.loads(text)
        assert _json_text(payload) == self.expected(payload) == text

    @pytest.mark.parametrize("payload", [{1: 2}, {"a": {None: 1}}, {"a": Fraction(1, 2)}, [{1, 2}], b"x"])
    def test_types_the_cli_never_writes_are_refused(self, payload):
        with pytest.raises(TypeError):
            _json_text(payload)
