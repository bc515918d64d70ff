"""Byte-identity of CLI artifacts against checked-in golden files.

Four cases rerun through ``cli.main`` in a fresh directory:

* ``cli_pipeline``: the benchmark's cli-pipeline instance (a balanced code
  over GF(11^8), n = 8, seed 201), then ``verify --json`` against its claim
  and ``decode --json`` on three seeded received words kept in the golden
  directory as inputs;
* ``length2_large``: the two-symbol code over GF(65521^8), whose mirrored
  basis takes two doubling steps, (4, 2) and (8, 4), each with a subfield
  representative far beyond any walk of its members, then ``verify --json``
  against its claim;
* ``refuted``: a trace code over GF(3^2)^2 with its dual basis (not the
  polynomial basis), refuted by ``verify --family full:4 --json``, so the
  counterexample and witness paths run on an e = 2 tower;
* ``gv``: a greedy GV code over GF(2^2), n = 14, r = 3, m = 3, seed 0,
  near its existence threshold so candidates are rejected, then
  ``verify --json`` against its claim.

Every primary artifact and every command's stdout must equal the golden
bytes; manifests are not compared, since they record a duration.  Running
this file as a script (``PYTHONPATH=src python tests/test_golden.py``)
rewrites the golden files from the code as it stands, so do that only at
a commit whose artifacts are the reference.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from hierasure import constructions, correctability, fields, patterns, serialize
from hierasure.cli import main

GOLDEN = Path(__file__).parent / "golden"
WORDS = 3


def _pipeline(d: Path, inputs: Path):
    code = str(d / "code.json")
    steps = [
        ("construct", ["construct", "balanced", "--p", "11", "--alpha", "8", "--n", "8",
                       "--seed", "201", "--out", code, "--json"], 0),
        ("verify", ["verify", "--code", code, "--json", "--out", str(d / "verify.json")], 0),
    ]
    for k in range(WORDS):
        steps.append((f"decoded_{k}", [
            "decode", "--code", code, "--received", str(inputs / f"rw_{k}.json"),
            "--json", "--out", str(d / f"decoded_{k}.json"),
        ], 0))
    return steps


def _refuted(d: Path, inputs: Path):
    code = str(d / "code.json")
    return [
        ("construct", ["construct", "trace", "--p", "3", "--e", "2", "--alpha", "2", "--n", "5",
                       "--m", "3", "--seed", "2", "--out", code, "--json"], 0),
        ("verify", ["verify", "--code", code, "--family", "full:4", "--json",
                    "--out", str(d / "verify.json")], 1),
    ]


def _length2_large(d: Path, inputs: Path):
    code = str(d / "code.json")
    return [
        ("construct", ["construct", "length2", "--p", "65521", "--alpha", "8", "--seed", "0",
                       "--out", code, "--json"], 0),
        ("verify", ["verify", "--code", code, "--json", "--out", str(d / "verify.json")], 0),
    ]


def _gv(d: Path, inputs: Path):
    code = str(d / "code.json")
    return [
        ("construct", ["construct", "gv", "--p", "2", "--alpha", "2", "--n", "14", "--r", "3",
                       "--m", "3", "--seed", "0", "--out", code, "--json"], 0),
        ("verify", ["verify", "--code", code, "--json", "--out", str(d / "verify.json")], 0),
    ]


CASES = {
    "cli_pipeline": _pipeline,
    "gv": _gv,
    "length2_large": _length2_large,
    "refuted": _refuted,
}


def _run(case: str, d: Path) -> dict[str, bytes]:
    """Run a case's commands in d; its artifacts and stdouts by file name."""
    out = {}
    for step, argv, want_rc in CASES[case](d, GOLDEN / case):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        assert rc == want_rc, f"{case}/{step}: exit code {rc}, expected {want_rc}"
        out[f"{step}.stdout"] = buf.getvalue().encode("utf-8")
        if step != "construct":
            out[f"{step}.json"] = (d / f"{step}.json").read_bytes()
    out["code.json"] = (d / "code.json").read_bytes()
    return out


@pytest.mark.filterwarnings("ignore:field size")  # the gv case sits at its existence threshold
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_artifacts_match_golden(case, tmp_path):
    produced = _run(case, tmp_path)
    for name, data in sorted(produced.items()):
        assert data == (GOLDEN / case / name).read_bytes(), f"{case}/{name} differs"


def _write_received_words(d: Path):
    # seeded codewords of the cli-pipeline code, each erased by a seeded
    # balanced pattern
    ext = fields.make_tower(11, 1, 8, 201)
    code = constructions.balanced_code(8, ext)
    basis = correctability.kernel_basis(code)
    members = list(patterns.enumerate_family(patterns.BalancedFamily(8, 8)))
    rng = random.Random("golden/cli")
    for k in range(WORDS):
        word = [ext.zero()] * code.n
        for g in basis:
            x = ext.from_index(rng.randrange(ext.order))
            word = [w + x * gi for w, gi in zip(word, g)]
        t = members[rng.randrange(len(members))]
        received = patterns.apply_erasure(tuple(word), t, code.omega)
        text = json.dumps(serialize.received_to_json(received), indent=2, sort_keys=True)
        (d / f"rw_{k}.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    for case in CASES:
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
    _write_received_words(GOLDEN / "cli_pipeline")
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in _run(case, Path(tmp)).items():
                (GOLDEN / case / name).write_bytes(data)
