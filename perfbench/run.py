"""hierasure benchmark: one seeded workload, timed, checked, optionally traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload decode-stream --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` of the checkout this file sits in.
Set-up runs at least three times and for at least a second; its median is
``setup_s``.  Operations then run back to back for ``--seconds``; each is
timed alone and its output checked outside the timed region.  Gated times
are scaled to a fixed machine speed (see ``speed.py``).  With ``--trace 1``
untraced and traced stretches alternate, each pair replaying the same
operations, so the tracing overhead per operation is their difference.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from speed import timed_chunks

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_S = 1.0
PAIR_S = 1.0  # length of each untraced and each traced stretch in a traced run


def _import_library():
    src = ROOT / "src"
    if not (src / "hierasure" / "__init__.py").is_file():
        raise SystemExit(f"error: no hierasure sources under {src}")
    sys.path.insert(0, str(src))
    import hierasure

    if Path(hierasure.__file__).resolve().parent != (src / "hierasure").resolve():
        raise SystemExit(f"error: imported hierasure from {hierasure.__file__}, not {src}")


def _measure(wl, seconds: float, tracer=None, first: int = 0):
    """Run operations first, first + 1, ... until ``seconds`` pass.

    Returns the raw and the speed-scaled times of the operations that
    returned, the number that failed (raised, or returned a wrong output)
    and the number attempted.
    """
    failed, k = 0, first

    def step():
        nonlocal failed, k
        inp = wl.inputs(k)
        elapsed = None
        try:
            with tracer.op(k) if tracer else nullcontext():
                start = time.perf_counter()
                out = wl.run(inp)
                elapsed = time.perf_counter() - start
            problems = wl.check(inp, out)
        except Exception:  # an operation that raises is a failed operation
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            if failed <= 3:
                print(f"op {k} failed: " + "; ".join(problems), file=sys.stderr)
        k += 1
        return elapsed

    deadline = time.perf_counter() + seconds
    raw, scaled = timed_chunks(step, lambda n: n == 0 or time.perf_counter() < deadline)
    if not raw:
        raise RuntimeError(f"{wl.name}: every operation raised")
    return raw, scaled, failed, k - first


def _setup(wl) -> tuple[list, list]:
    """Set up at least SETUP_REPEATS times and for at least SETUP_S seconds.

    Each set-up starts from a collected heap, untimed: codes and towers hold
    reference cycles, and otherwise the garbage of earlier set-ups would
    linger for as many set-ups as the cyclic collector happens to skip,
    moving the peak resident set from run to run.
    """

    def step():
        gc.collect()
        start = time.perf_counter()
        wl.setup()
        return time.perf_counter() - start

    deadline = time.perf_counter() + SETUP_S
    times = timed_chunks(step, lambda n: n < SETUP_REPEATS or time.perf_counter() < deadline)
    gc.collect()
    return times


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gil": getattr(sys, "_is_gil_enabled", lambda: True)(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        tamper: bool = False) -> dict:
    """One benchmark run; returns the result object the command prints."""
    from workloads import WORKLOADS

    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as workdir:
        wl = WORKLOADS[workload](seed, tiny, Path(workdir))
        wl.tampered = tamper
        setup_raw, setup_scaled = _setup(wl)
        if trace:
            return _traced(wl, seconds, outdir)
        raw, scaled, failed, attempted = _measure(wl, seconds)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    log = {
        "raw_setup_s": (statistics.median(setup_raw), "s"),
        "raw_op_p50_ms": (statistics.median(raw) * 1e3, "ms"),
        "speed_scale": (statistics.median(s / r for s, r in zip(scaled, raw)), "scaled/raw"),
        **wl.summary(raw),
        "failed_op_ratio": (failed / attempted, "failed/attempted"),
        "ops": (attempted, "count"),
        "setups": (len(setup_raw), "count"),
    }
    return _result(log, metrics, attempted, failed)


def _traced(wl, seconds: float, outdir: Path) -> dict:
    """Alternate untraced and traced stretches of PAIR_S over the same inputs.

    The overhead is the median, over pairs, of the traced minus the untraced
    median operation time; pairing keeps both sides of each difference
    within a few seconds of each other, so host drift mostly cancels.
    """
    import layers
    from tracer import Tracer

    tracer = Tracer()
    wl.span = tracer.span
    diffs, base_all, scaled_all = [], [], []
    failed = attempted = traced = first = 0
    deadline = time.perf_counter() + seconds
    while first == 0 or time.perf_counter() < deadline:
        _, base, f0, n0 = _measure(wl, PAIR_S, first=first)
        layers.install(tracer)
        try:
            _, scaled, f1, n1 = _measure(wl, PAIR_S, tracer, first)
        finally:
            tracer.uninstall()
        diffs.append(statistics.median(scaled) - statistics.median(base))
        base_all += base
        scaled_all += scaled
        failed += f0 + f1
        attempted += n0 + n1
        traced += n1
        first += max(n0, n1)
    metrics = layers.metrics(tracer, traced, statistics.median(diffs))
    tracer.write(
        outdir / f"trace-{wl.name}-seed{wl.seed}.json",
        {"workload": wl.name, "seed": wl.seed, "traced_ops": traced,
         "untraced_op_scaled_s": base_all, "traced_op_scaled_s": scaled_all,
         "overhead_pairs_s": diffs, "machine": machine()},
    )
    log = {"failed_op_ratio": (failed / attempted, "failed/attempted")}
    return _result(log, metrics, attempted, failed)


def _result(log: dict, metrics: dict, attempted: int, failed: int) -> dict:
    for name, (value, unit) in {**metrics, **log}.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    _import_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small instances, for the self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
