"""Command-line front end: construct, verify, decode, udm, bounds, demo.

Artifacts are JSON only; human-readable summaries go to stdout unless
``--json`` asks for machine output.  Every run that writes a primary
artifact also writes a replayable manifest next to it (same command,
parameters and seed reproduce byte-identical primary outputs; only the
recorded duration varies).  ``_write_json`` is the one writer of both: it
rewrites a file in place and cuts it only when the old file was longer.
Exit codes: 0 success, 1 semantic failure
(verification false, decode not unique, construction gave up), 2 usage
or parameter errors and internal errors (no verdict: one line on stderr,
no traceback).  A library warning is one ``warning: <message>`` line on
stderr, with no file, line number or source line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import stat
import sys
import time
import warnings
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path

from . import __version__, serialize
from .bounds import (
    asymptotic_field_size,
    excluded_columns_bound,
    gv_field_threshold,
    singleton_check,
)
from .constructions import (
    balanced_code,
    gabidulin_code,
    greedy_gv_code,
    length2_code,
    power_code,
    square_trace_code,
    trace_code,
)
from .correctability import decode as decode_word
from .correctability import is_correcting, kernel_basis, patterns_correctable
from .errors import ConstructionError, ParameterError
from .fields import make_field, make_tower
from .patterns import ReceivedWord, apply_erasure, maximal_patterns, parse_family
from .udm import verify_udm, vontobel_udms

_string = json.encoder.encode_basestring_ascii
_int = int.__repr__


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    json's indented encoder runs in pure Python; this one writes a list of
    plain ints, and a list of such lists, with one join each, and that is
    where almost all of an artifact's lines are (element JSON).  Keys must
    be strings, and any type json would refuse raises ``TypeError``.
    """
    parts = []
    _emit(payload, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _int_rows(items, nl):
    """items as one indented JSON text when every item is a plain int, or
    every item is a nonempty list or tuple of plain ints; else None."""
    inner = nl + "  "
    kinds = set(map(type, items))
    if kinds == {int}:
        return "[" + inner + ("," + inner).join(map(_int, items)) + nl + "]"
    if kinds <= {list, tuple} and all(items) and set(map(type, chain.from_iterable(items))) == {int}:
        leaf = inner + "  "
        rows = map(("," + leaf).join, map(map, repeat(_int), items))
        return "[" + inner + "[" + leaf + (inner + "]," + inner + "[" + leaf).join(rows) + inner + "]" + nl + "]"
    return None


def _emit(obj, nl, put) -> None:
    """Put obj's indented JSON, whose own line starts after nl."""
    if isinstance(obj, str):
        put(_string(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(_int(obj))
    elif isinstance(obj, float):
        put(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        rows = _int_rows(obj, nl)
        if rows is not None:
            put(rows)
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            put(sep)
            _emit(item, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + _string(key) + ": ")
            _emit(obj[key], inner, put)
            sep = "," + inner
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _in_place(path, flags):
    # "wb" without O_TRUNC: truncating an existing file costs more than
    # writing it, so _write_json cuts only the tail it did not overwrite
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_json(path: Path, payload) -> None:
    """Write payload's indented JSON to path, in place.

    An existing regular file is overwritten from its start and truncated
    only when it was longer than the new text; a FIFO, tty or ``/dev/null``
    is never truncated.
    """
    data = _json_text(payload).encode("ascii")
    try:
        with open(path, "wb", opener=_in_place) as f:
            old = os.fstat(f.fileno())
            f.write(data)
            if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
                f.truncate()
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _read_json(path: str, load):
    """Parse the JSON file at path with the given serialize loader.

    A missing or unreadable file and text that is not JSON are parameter
    errors, like a payload the loader rejects.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}") from exc
    return load(obj)


def _write_manifest(out: Path, command: str, params: dict, seed: int, outcome: dict, started: float):
    manifest = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "version": __version__,
        "outcome": outcome,
        "duration_seconds": time.perf_counter() - started,
    }
    _write_json(out.with_suffix(out.suffix + ".manifest.json"), manifest)


def _tower_args(sub: argparse.ArgumentParser):
    sub.add_argument("--p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--e", type=int, default=1, help="base-field degree over the prime")
    sub.add_argument("--alpha", type=int, required=True, help="extension degree over the base")
    sub.add_argument("--seed", type=int, default=0)


def _parse_nodes(spec_text, ext):
    if spec_text is None:
        return None
    try:
        indices = [int(s) for s in spec_text.split(",") if s.strip()]
    except ValueError as exc:
        raise ParameterError(f"--nu must be comma-separated integers, got {spec_text!r}") from exc
    return [ext.base.from_index(k) for k in indices]


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"{flag} must be a rational number, got {text!r}") from exc


# kind: (the flags it requires, the code it builds from the parsed flags and the tower)
_CONSTRUCTIONS = {
    "length2": ((), lambda a, ext: length2_code(ext)),
    "trace": (("n", "m"), lambda a, ext: trace_code(
        vontobel_udms(a.n, a.alpha, a.m, ext.base), ext.polynomial_basis())),
    "n2ext": ((), lambda a, ext: square_trace_code(ext)),
    "balanced": (("n",), lambda a, ext: balanced_code(a.n, ext, _parse_nodes(a.nu, ext))),
    "power": (("n",), lambda a, ext: power_code(a.n, ext, _parse_nodes(a.nu, ext))),
    "gabidulin": (("n", "r"), lambda a, ext: gabidulin_code(a.n, a.r, ext)),
    "gv": (("n", "r", "m"), lambda a, ext: greedy_gv_code(
        a.n, a.r, a.m, ext, seed=a.seed, budget=a.budget)),
}


def _cmd_construct(args) -> int:
    started = time.perf_counter()
    kind = args.kind
    needs, build = _CONSTRUCTIONS[kind]
    for name in needs:
        if getattr(args, name) is None:
            raise ParameterError(f"construct {kind} requires --{name}")
    code = build(args, make_tower(args.p, args.e, args.alpha, args.seed))
    payload = serialize.code_to_json(code)
    out = Path(args.out)
    _write_json(out, payload)
    outcome = {"n": code.n, "rank": code.rank, "dim": code.dim}
    _write_manifest(out, "construct " + kind, _params_of(args), args.seed, outcome, started)
    if not args.json:
        claim = payload["claim"]
        print(f"wrote {out} ({kind}: n={code.n}, dim={code.dim}, claim={claim})")
    else:
        print(json.dumps(outcome, sort_keys=True))
    return 0


def _params_of(args) -> dict:
    skip = {"func", "kind", "json"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    code = _read_json(args.code, serialize.code_from_json)
    report: dict
    if args.patterns:
        pats = _read_json(args.patterns, serialize.patterns_from_json)
        failures = [t for t, ok in zip(pats, patterns_correctable(code, pats)) if not ok]
        ok = not failures
        report = {
            "correcting": ok,
            "patterns_checked": len(pats),
            "counterexample": list(failures[0]) if failures else None,
        }
    else:
        fam = code.claim
        if args.family:
            fam = parse_family(args.family, code.ext.alpha, code.n)
        if fam is None:
            raise ParameterError("code carries no claim; pass --family or --patterns")
        result = is_correcting(code, fam, all_patterns=args.all_patterns)
        report = {
            "correcting": result.correcting,
            "family": serialize.family_to_json(fam),
            "counterexample": None if result.pattern is None else list(result.pattern),
            "witness": None
            if result.witness is None
            else serialize.codeword_to_json(result.witness),
        }
    if args.out:
        out = Path(args.out)
        _write_json(out, report)
        _write_manifest(out, "verify", _params_of(args), 0, {"correcting": report["correcting"]}, started)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"correcting: {report['correcting']}")
        if report.get("counterexample"):
            print(f"counterexample pattern: {report['counterexample']}")
    return 0 if report["correcting"] else 1


def _cmd_decode(args) -> int:
    started = time.perf_counter()
    code = _read_json(args.code, serialize.code_from_json)
    rw = _read_json(args.received, lambda obj: serialize.received_from_json(obj, like=code.omega))
    result = decode_word(code, rw)
    report = {
        "status": result.status,
        "codeword": None
        if result.codeword is None
        else serialize.codeword_to_json(result.codeword),
        "solution_space_dim": result.solution_space_dim,
    }
    if args.out:
        out = Path(args.out)
        _write_json(out, report)
        _write_manifest(out, "decode", _params_of(args), 0, {"status": result.status}, started)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"decode: {result.status}")
        if result.codeword is not None:
            print(f"codeword: {report['codeword']}")
    return 0 if result.status == "decoded" else 1


def _cmd_udm(args) -> int:
    started = time.perf_counter()
    if args.action == "build":
        field = make_field(args.p, args.e, args.seed)
        u = vontobel_udms(args.n, args.alpha, args.m, field)
        out = Path(args.out)
        _write_json(out, serialize.udms_to_json(u))
        outcome = {"n": u.n}
        _write_manifest(out, "udm build", _params_of(args), args.seed, outcome, started)
        if args.json:
            print(json.dumps(outcome, sort_keys=True))
        else:
            print(f"wrote {out} ({u.n} matrices {u.alpha}x{u.m} over GF({field.order}))")
        return 0
    u = _read_json(args.udm, serialize.udms_from_json)
    check = verify_udm(u)
    report = {
        "ok": check.ok,
        "counterexample": None if check.counterexample is None else list(check.counterexample),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"universally decodable: {check.ok}")
        if check.counterexample:
            print(f"counterexample pattern: {list(check.counterexample)}")
    return 0 if check.ok else 1


def _cmd_bounds(args) -> int:
    started = time.perf_counter()
    if args.which == "gv":
        th = gv_field_threshold(args.n, args.m, args.alpha, args.r)
        report = {
            "base": th.base,
            "exponent_denominator": th.exponent_den,
            "q_min": th.q_min,
        }
    elif args.which == "singleton":
        sr = singleton_check(args.n, args.k, args.m, args.alpha)
        report = {"m_prime": sr.m_prime, "ok": sr.ok}
    elif args.which == "rell":
        eb = excluded_columns_bound(args.n, args.m, args.alpha, args.q)
        report = {"loose": eb.loose, "tight": eb.tight}
    else:
        lim = asymptotic_field_size(args.regime, _fraction(args.c1, "--c1"), _fraction(args.c2, "--c2"))
        report = {"value": lim.value, "closed_form": lim.closed_form}
    if args.out:
        out = Path(args.out)
        _write_json(out, report)
        _write_manifest(out, "bounds " + args.which, _params_of(args), 0, report, started)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for k, v in report.items():
            print(f"{k}: {v}")
    return 0


def _cmd_demo(args) -> int:
    started = time.perf_counter()
    rng = random.Random(args.seed)
    if args.scenario == "storage-straggler":
        ext = make_tower(2, 1, 2, args.seed)
        code = length2_code(ext)
        print("scenario: storage servers answering coordinate by coordinate")
    else:
        ext = make_tower(5, 1, 4, args.seed)
        code = balanced_code(4, ext)
        print("scenario: check-node resolving partial symbol reads")
    print(f"code: n={code.n}, dim={code.dim}, claim={serialize.family_to_json(code.claim)}")
    basis_words = kernel_basis(code)
    message = [code.ext.from_index(rng.randrange(code.ext.order)) for _ in basis_words]
    word = [code.ext.zero()] * code.n
    for x, g in zip(message, basis_words):
        word = [w + x * gi for w, gi in zip(word, g)]
    word = tuple(word)
    print(f"codeword: {serialize.codeword_to_json(word)}")
    if args.corrupt:
        # full readout plus a flipped coordinate: the membership check must
        # flag it, since every check column of these codes is nonzero
        t = (0,) * code.n
        print("erasure pattern: none (corruption demo, full readout)")
        received = _tamper(apply_erasure(word, t, code.omega))
        print("tampering with one stored coordinate")
    else:
        pats = list(maximal_patterns(code.claim))
        t = pats[rng.randrange(len(pats))]
        print(f"erasure pattern: {list(t)}")
        received = apply_erasure(word, t, code.omega)
    result = decode_word(code, received)
    print(f"decode: {result.status}")
    if args.out:
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"cannot create {outdir}: {exc.strerror or exc}") from exc
        _write_json(outdir / "code.json", serialize.code_to_json(code))
        _write_json(outdir / "received.json", serialize.received_to_json(received))
        _write_json(
            outdir / "decoded.json",
            {
                "status": result.status,
                "codeword": None
                if result.codeword is None
                else serialize.codeword_to_json(result.codeword),
            },
        )
        _write_manifest(
            outdir / "run", "demo " + args.scenario, _params_of(args), args.seed,
            {"status": result.status}, started,
        )
    if result.status == "decoded":
        ok = result.codeword == word
        print(f"round trip exact: {ok}")
        return 0 if ok else 1
    return 0 if args.corrupt else 1


def _tamper(received):
    base = received.omega.ext.base
    known = [list(suffix) for suffix in received.known]
    for i, suffix in enumerate(known):
        if suffix:
            suffix[0] = suffix[0] + base.one()
            break
    return ReceivedWord(received.omega, received.pattern, tuple(tuple(s) for s in known))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hierasure")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("construct", help="build a code and write it to JSON")
    c.add_argument("kind", choices=_CONSTRUCTIONS)
    _tower_args(c)
    c.add_argument("--n", type=int, help="code length")
    c.add_argument("--m", type=int, help="erasure budget (trace, gv)")
    c.add_argument("--r", type=int, help="check count (gabidulin, gv)")
    c.add_argument("--nu", help="comma-separated base-field element indices for the nodes")
    c.add_argument("--budget", type=int, default=10_000)
    c.add_argument("--out", required=True)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_construct)

    v = subs.add_parser("verify", help="check a code against a pattern family")
    v.add_argument("--code", required=True)
    v.add_argument("--family", help="full:m | balanced | power | bounded:r (default: the code's claim)")
    v.add_argument("--patterns", help="JSON file with an explicit pattern list")
    v.add_argument("--all-patterns", action="store_true", help="audit dominated patterns too")
    v.add_argument("--out")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)

    d = subs.add_parser("decode", help="recover erased coordinates of a received word")
    d.add_argument("--code", required=True)
    d.add_argument("--received", required=True)
    d.add_argument("--out")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_decode)

    u = subs.add_parser("udm", help="build or verify universally decodable matrices")
    usubs = u.add_subparsers(dest="action", required=True)
    ub = usubs.add_parser("build")
    _tower_args(ub)
    ub.add_argument("--m", type=int, required=True)
    ub.add_argument("--n", type=int, required=True)
    ub.add_argument("--out", required=True)
    ub.add_argument("--json", action="store_true")
    ub.set_defaults(func=_cmd_udm, action="build")
    uv = usubs.add_parser("verify")
    uv.add_argument("--udm", required=True)
    uv.add_argument("--json", action="store_true")
    uv.set_defaults(func=_cmd_udm, action="verify")

    b = subs.add_parser("bounds", help="evaluate impossibility and existence bounds")
    bsubs = b.add_subparsers(dest="which", required=True)
    bg = bsubs.add_parser("gv")
    for flag in ("--n", "--m", "--alpha", "--r"):
        bg.add_argument(flag, type=int, required=True)
    bs = bsubs.add_parser("singleton")
    for flag in ("--n", "--k", "--m", "--alpha"):
        bs.add_argument(flag, type=int, required=True)
    br = bsubs.add_parser("rell")
    for flag in ("--n", "--m", "--alpha", "--q"):
        br.add_argument(flag, type=int, required=True)
    ba = bsubs.add_parser("asymptotic")
    ba.add_argument("--regime", choices=["alpha_large", "n_large"], required=True)
    ba.add_argument("--c1", default="1")
    ba.add_argument("--c2", default="1")
    for sub in (bg, bs, br, ba):
        sub.add_argument("--out")
        sub.add_argument("--json", action="store_true")
        sub.set_defaults(func=_cmd_bounds)

    dm = subs.add_parser("demo", help="end-to-end construct/erase/decode walkthrough")
    dm.add_argument("scenario", choices=["storage-straggler", "check-node"])
    dm.add_argument("--seed", type=int, default=0)
    dm.add_argument("--corrupt", action="store_true")
    dm.add_argument("--out", help="directory for the demo artifacts")
    dm.set_defaults(func=_cmd_demo)

    return parser


# one parser per process: parse_args fills a fresh namespace on each call
_parser = functools.cache(build_parser)


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a fault gives no verdict: exit 1 would read as one
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
