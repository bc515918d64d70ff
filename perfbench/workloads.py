"""The four benchmark workloads.

Each workload builds its fixed inputs in ``setup`` (timed as set-up, not as
an operation), makes the input of operation k in ``inputs`` from the seed
and k alone, runs one operation in ``run`` (the timed region) and checks
its output in ``check`` (untimed).  Every workload is a closed loop with
one client in one process: the next operation starts when the previous one
returns, and nothing runs in threads.

``tiny`` selects small instances of the same shape, for the self-tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
from pathlib import Path

from hierasure import (
    cli,
    constructions,
    correctability,
    fields,
    patterns,
    serialize,
    udm,
)


def _random_codeword(code, basis, rng):
    ext = code.ext
    word = [ext.zero()] * code.n
    for g in basis:
        x = ext.from_index(rng.randrange(ext.order))
        word = [w + x * gi for w, gi in zip(word, g)]
    return tuple(word)


def _bump(word):
    """The word with its first symbol changed, for tampered expectations."""
    return (word[0] + word[0].spec.one(),) + tuple(word[1:])


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.span = lambda name: contextlib.nullcontext()  # replaced in a traced run
        self.tampered = False
        self.phases = []  # per-operation phase times, for ``summary``

    def setup(self):
        raise NotImplementedError

    def inputs(self, k: int):
        return None

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Problems with one operation's output; empty when it is correct."""
        raise NotImplementedError

    def summary(self, times: list[float]) -> dict:
        """Workload-specific figures, {name: (value, unit)}, for the log."""
        raise NotImplementedError


class VerifyTrace(Workload):
    """Load a trace code from JSON, verify its claim, and refute full:(m+1).

    Every operation loads a fresh code, as a CLI ``verify`` process does, so
    no expansion is reused across operations.
    """

    name = "verify-trace"

    def setup(self):
        n, alpha, m, p = (4, 2, 2, 3) if self.tiny else (8, 4, 5, 7)
        ext = fields.make_tower(p, 1, alpha, self.seed)
        u = udm.vontobel_udms(n, alpha, m, ext.base)
        code = constructions.trace_code(u, ext.polynomial_basis())
        self.payload = serialize.code_to_json(code)
        self.failing = patterns.FullFamily(alpha, m + 1, n)

    def run(self, inp):
        code = serialize.code_from_json(self.payload)
        claim = correctability.is_correcting(code, code.claim)
        refuted = correctability.is_correcting(code, self.failing)
        return code, claim, refuted

    def check(self, inp, out):
        code, claim, refuted = out
        expect_claim = not self.tampered
        problems = []
        if claim.correcting != expect_claim:
            problems.append(f"claim verdict {claim.correcting}, expected {expect_claim}")
        if refuted.correcting:
            return problems + [f"{self.failing} verdict True, expected False"]
        t, w = refuted.pattern, refuted.witness
        if not patterns.family_contains(self.failing, t):
            problems.append(f"counterexample {t} is not in {self.failing}")
        if not any(w):
            problems.append("witness is the zero word")
        zero = code.ext.zero()
        for row in code.H:
            acc = zero
            for h, x in zip(row, w):
                acc = acc + h * x
            if acc:
                problems.append("witness is not a codeword (H w != 0)")
                break
        received = patterns.apply_erasure(w, t, code.omega)
        if any(c for suffix in received.known for c in suffix):
            problems.append("witness is not invisible under its pattern")
        return problems

    def summary(self, times):
        return {"verify_s": (statistics.median(times), "s/op")}


# decode-stream cycles through this many towers (tower seeds seed*4 .. seed*4+3):
# the decoding cost depends on the modulus through the zero pattern of the
# expanded systems, and one tower per run made the run-to-run spread of the
# median half as wide again as the timing noise alone.
DECODE_TOWERS = 4


class DecodeStream(Workload):
    """Decode seeded received words on the README's balanced code.

    Patterns are drawn uniformly from every member of the balanced family,
    dominated ones included, so each code meets all its patterns many times.
    """

    name = "decode-stream"

    def setup(self):
        n, alpha, p = (2, 2, 3) if self.tiny else (4, 4, 5)
        self.codes = []
        for j in range(DECODE_TOWERS):
            ext = fields.make_tower(p, 1, alpha, self.seed * DECODE_TOWERS + j)
            code = constructions.balanced_code(n, ext)
            self.codes.append((code, correctability.kernel_basis(code)))
        self.members = list(patterns.enumerate_family(patterns.BalancedFamily(alpha, n)))

    def inputs(self, k):
        code, basis = self.codes[k % DECODE_TOWERS]
        rng = random.Random(f"{self.seed}/{k}")
        word = _random_codeword(code, basis, rng)
        t = self.members[rng.randrange(len(self.members))]
        return code, word, patterns.apply_erasure(word, t, code.omega)

    def run(self, inp):
        return correctability.decode(inp[0], inp[2])

    def check(self, inp, out):
        _, word, received = inp
        if self.tampered:
            word = _bump(word)
        if out.status != "decoded":
            return [f"status {out.status!r} for pattern {received.pattern}"]
        if out.codeword != word:
            return [f"wrong codeword for pattern {received.pattern}"]
        return []

    def summary(self, times):
        p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= 2 else times[0]
        return {
            "decode_words_per_s": (len(times) / sum(times), "words/s"),
            "decode_p50_us": (statistics.median(times) * 1e6, "us"),
            "decode_p90_us": (p90 * 1e6, "us"),
        }


# The GV instance is fixed rather than drawn from the workload seed: near the
# existence threshold the number of probe codes, and with it the run time,
# varies about tenfold with the GV seed (18 to 145 probes over seeds 0-19),
# which would swamp every bound.  Seed 0 takes 51 probes for 11 columns.
# GF(2^2) and GF(7) have no seeded choice either, so this workload's inputs do
# not depend on the workload seed.
GV_SEED = 0


class ConstructGV(Workload):
    """Greedy existence-bound code near its threshold, then a checked UDM set."""

    name = "construct-gv"

    def setup(self):
        self.gv, self.udm, udm_p = ((6, 2, 1), (4, 2, 2), 3) if self.tiny else ((14, 3, 3), (8, 4, 5), 7)
        self.gv_ext = fields.make_tower(2, 1, 2)
        self.udm_field = fields.make_field(udm_p, 1)

    def run(self, inp):
        clock = _clock()
        n, r, m = self.gv
        code = constructions.greedy_gv_code(n, r, m, self.gv_ext, seed=GV_SEED)
        gv_s = clock()
        u = udm.vontobel_udms(*self.udm, self.udm_field)
        self.phases.append({"gv": gv_s, "udm": clock()})
        return code, u

    def check(self, inp, out):
        code, u = out
        n, r, _m = self.gv
        rank = r + 1 if self.tampered else r
        problems = []
        if (code.n, code.rank) != (n, rank):
            problems.append(f"GV code has n={code.n}, rank={code.rank}; expected {n}, {rank}")
        if not correctability.is_correcting(code, code.claim).correcting:
            problems.append("GV code fails its claim")
        if u.n != self.udm[0]:
            problems.append(f"UDM set has {u.n} matrices, expected {self.udm[0]}")
        return problems

    def summary(self, times):
        return {
            "gv_construct_s": (statistics.median(p["gv"] for p in self.phases), "s/op"),
            "udm_build_s": (statistics.median(p["udm"] for p in self.phases), "s/op"),
        }


class CliPipeline(Workload):
    """construct -> verify -> decode through the in-process CLI.

    Each pass rebuilds the code, verifies it against its claim, and decodes a
    fixed batch of received words made in set-up, one ``decode`` call (and one
    code JSON parse) per word.
    """

    name = "cli-pipeline"

    def setup(self):
        p, alpha, n, words = (5, 4, 4, 2) if self.tiny else (11, 8, 8, 8)
        self.construct_argv = [
            "construct", "balanced", "--p", str(p), "--alpha", str(alpha), "--n", str(n),
            "--seed", str(self.seed), "--out", str(self.workdir / "code.json"),
        ]
        ext = fields.make_tower(p, 1, alpha, self.seed)
        code = constructions.balanced_code(n, ext)
        self.code_bytes = _json_bytes(serialize.code_to_json(code))
        basis = correctability.kernel_basis(code)
        members = list(patterns.enumerate_family(patterns.BalancedFamily(alpha, n)))
        rng = random.Random(f"{self.seed}/cli")
        self.expected = []
        for k in range(words):
            word = _random_codeword(code, basis, rng)
            t = members[rng.randrange(len(members))]
            received = patterns.apply_erasure(word, t, code.omega)
            (self.workdir / f"rw_{k}.json").write_bytes(
                _json_bytes(serialize.received_to_json(received))
            )
            self.expected.append(word)
        self.first_pass = None

    def _artifacts(self):
        names = ["code.json", "verify.json"] + [f"decoded_{k}.json" for k in range(len(self.expected))]
        return {name: (self.workdir / name).read_bytes() for name in names}

    def run(self, inp):
        d = self.workdir
        clock = _clock()
        rcs, decode_s = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            with self.span("cli.construct"):
                rcs.append(cli.main(self.construct_argv))
            construct_s = clock()
            with self.span("cli.verify"):
                rcs.append(cli.main(["verify", "--code", str(d / "code.json"), "--json",
                                     "--out", str(d / "verify.json")]))
            verify_s = clock()
            for k in range(len(self.expected)):
                with self.span("cli.decode"):
                    rcs.append(cli.main([
                        "decode", "--code", str(d / "code.json"),
                        "--received", str(d / f"rw_{k}.json"),
                        "--json", "--out", str(d / f"decoded_{k}.json"),
                    ]))
                decode_s.append(clock())
        self.phases.append({"construct": construct_s, "verify": verify_s, "decode": decode_s})
        return rcs

    def check(self, inp, rcs):
        problems = [f"exit codes {rcs}"] if any(rcs) else []
        arts = self._artifacts()
        if arts["code.json"] != self.code_bytes:
            problems.append("CLI code differs from the library's")
        if json.loads(arts["verify.json"])["correcting"] is not True:
            problems.append("verify did not report correcting: true")
        for k, word in enumerate(self.expected):
            report = json.loads(arts[f"decoded_{k}.json"])
            want = serialize.codeword_to_json(_bump(word) if self.tampered else word)
            if report["status"] != "decoded" or report["codeword"] != want:
                problems.append(f"received word {k} did not decode to its codeword")
        if self.first_pass is None:
            self.first_pass = arts
        elif arts != self.first_pass:
            problems.append("primary artifacts differ from the first pass")
        return problems

    def summary(self, times):
        return {
            "cli_pipeline_s": (statistics.median(times), "s/pass"),
            "cli_verify_s": (statistics.median(p["verify"] for p in self.phases), "s/call"),
            "cli_decode_call_ms": (
                statistics.median(s for p in self.phases for s in p["decode"]) * 1e3, "ms/call"
            ),
        }


def _json_bytes(payload) -> bytes:
    # the CLI's own artifact encoding
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _clock():
    """A lap timer: each call returns the seconds since the previous one."""
    last = time.perf_counter()

    def lap():
        nonlocal last
        now = time.perf_counter()
        dt, last = now - last, now
        return dt

    return lap


WORKLOADS = {w.name: w for w in (VerifyTrace, DecodeStream, ConstructGV, CliPipeline)}
