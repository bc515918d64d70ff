import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hierasure import FullFamily, code_from_rows, find_quadratic_root, serialize
from hierasure import apply_erasure, b_symmetric_basis, kernel_basis, length2_code
from hierasure.cli import main
from towers import tower


def run(*argv):
    return main(list(argv))


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

    def test_verify_failure_exit_code_and_counterexample(self, tmp_path, capsys):
        ext = tower(2, 1, 2)
        omega = b_symmetric_basis(ext, find_quadratic_root(ext))
        bad = code_from_rows(ext, [[ext.one(), ext.one()]], omega, FullFamily(2, 2, 2))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(serialize.code_to_json(bad)))
        assert run("verify", "--code", str(path), "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["correcting"] is False
        assert report["counterexample"] == [1, 1]
        assert report["witness"] is not None

    def test_verify_pattern_file(self, tmp_path):
        out = tmp_path / "code.json"
        run("construct", "length2", "--p", "2", "--alpha", "2", "--out", str(out))
        pats = tmp_path / "pats.json"
        pats.write_text(json.dumps([[1, 1], [2, 0], [0, 2]]))
        assert run("verify", "--code", str(out), "--patterns", str(pats)) == 0

    def test_threads_flag_same_verdict(self, tmp_path):
        out = tmp_path / "code.json"
        run("construct", "balanced", "--p", "5", "--alpha", "4", "--n", "4", "--out", str(out))
        assert run("verify", "--code", str(out), "--threads", "4") == 0

    @pytest.mark.parametrize(
        "kind,args",
        [
            ("trace", ["--n", "3", "--m", "2"]),
            ("n2ext", []),
            ("gabidulin", ["--n", "2", "--r", "1"]),
        ],
    )
    def test_other_constructions(self, tmp_path, kind, args):
        out = tmp_path / "code.json"
        assert run("construct", kind, "--p", "2", "--alpha", "2", *args, "--out", str(out)) == 0
        assert run("verify", "--code", str(out)) == 0

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


class TestUdmCommands:
    def test_build_then_verify(self, tmp_path):
        out = tmp_path / "udm.json"
        assert (
            run(
                "udm", "build", "--p", "3", "--alpha", "2", "--m", "3",
                "--n", "3", "--out", str(out),
            )
            == 0
        )
        assert run("udm", "verify", "--udm", str(out)) == 0

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


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self):
        # ``python -m hierasure`` works from a checkout, with only src on the path
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hierasure", "bounds", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: hierasure bounds")


class TestDemo:
    def test_storage_scenario_round_trips(self, capsys):
        assert run("demo", "storage-straggler", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert "round trip exact: True" in out

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


class TestInputBoundary:
    """Bad input exits 2 with one ``error:`` line and no traceback."""

    @pytest.fixture
    def code_file(self, tmp_path):
        out = tmp_path / "code.json"
        run("construct", "length2", "--p", "2", "--alpha", "2", "--out", str(out))
        return str(out)

    @pytest.fixture
    def received_file(self, tmp_path, code_file):
        code = serialize.code_from_json(json.loads(open(code_file).read()))
        word = kernel_basis(code)[0]
        path = tmp_path / "rw.json"
        path.write_text(json.dumps(serialize.received_to_json(apply_erasure(word, (1, 1), code.omega))))
        return str(path)

    def assert_usage_error(self, capsys, rc):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1, err

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
        self.assert_usage_error(capsys, run("verify", "--code", code_file, "--threads", threads))

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

    def test_decode_still_works(self, code_file, received_file, capsys):
        assert run("decode", "--code", code_file, "--received", received_file, "--json") == 0
        assert json.loads(capsys.readouterr().out)["status"] == "decoded"
