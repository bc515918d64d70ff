"""Self-tests of the benchmark, on tiny instances of every workload.

    python3 perfbench/selftest.py

* Every workload runs as the benchmark command, on two seeds, untraced and
  traced, and must print every metric that BENCHMARK.json names, with its
  unit, and no failed operation.
* A tampered expectation (codeword or verdict) must count as failed
  operations, on every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _command(workload: str, seed: int, trace: int) -> dict:
    argv = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise AssertionError(f"{argv} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            for workload in NAMES:
                for seed in (3, 11):
                    with self.subTest(workload=workload, seed=seed, trace=trace):
                        result = _command(workload, seed, trace)
                        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        got = {k: v["unit"] for k, v in result["metrics"].items()}
                        self.assertEqual(got, want)

    def test_tampered_expectations_fail(self):
        sys.path.insert(0, str(HERE))
        import run

        run._import_library()
        for workload in NAMES:
            with self.subTest(workload=workload):
                result = run.run(workload, 5, 0.5, trace=False, tiny=True, tamper=True)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
