"""Decode smoke check of a code file through the CLI.

    python tests/smoke_decode.py CODE PATTERN SYMBOL COORD

Takes a codeword of the code in CODE (the sum of its kernel basis) and
erases it under PATTERN, the erased leading coordinates of each symbol,
comma-separated.  Next to CODE it writes the codeword (``word.json``),
that honest received word (``honest.json``) and a copy with known
coordinate COORD of symbol SYMBOL moved by one (``tampered.json``).  Then
``hierasure decode --json`` must decode the honest word with exit 0 to
the codeword (``decoded.json``), and find the tampered one inconsistent
with exit 1 (``tampered-report.json``).  A failed check exits non-zero
with a one-line message.  Run it with the package importable, for example
``PYTHONPATH=src``; the decodes run in child processes that inherit it.
"""

import json
import subprocess
import sys
from pathlib import Path

from hierasure import ReceivedWord, apply_erasure, kernel_basis, serialize


def _write(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _check(ok: bool, what) -> None:
    if not ok:
        sys.exit(f"smoke_decode: {what}")


def _decode(code: Path, received: Path, report: Path) -> int:
    # one CLI decode in its own process, its --json report written to report
    argv = [sys.executable, "-m", "hierasure", "decode"]
    argv += ["--code", str(code), "--received", str(received), "--json"]
    with open(report, "w") as out:
        return subprocess.run(argv, stdout=out).returncode


def main(argv: list[str]) -> None:
    code_path, pattern, symbol, coord = argv
    code_path = Path(code_path)
    out = code_path.parent
    with open(code_path) as fh:
        code = serialize.code_from_json(json.load(fh))
    word = tuple(sum(s[1:], s[0]) for s in zip(*kernel_basis(code)))
    honest = apply_erasure(word, tuple(int(t) for t in pattern.split(",")), code.omega)
    known = [list(s) for s in honest.known]
    i, j = int(symbol), int(coord)
    known[i][j] = known[i][j] + code.ext.base.one()
    tampered = ReceivedWord(code.omega, honest.pattern, tuple(map(tuple, known)))
    _write(out / "word.json", serialize.codeword_to_json(word))
    _write(out / "honest.json", serialize.received_to_json(honest))
    _write(out / "tampered.json", serialize.received_to_json(tampered))

    rc = _decode(code_path, out / "honest.json", out / "decoded.json")
    _check(rc == 0, f"honest decode exited {rc}")
    with open(out / "decoded.json") as fh, open(out / "word.json") as want:
        got = json.load(fh)
        _check(got["status"] == "decoded" and got["codeword"] == json.load(want), got)

    rc = _decode(code_path, out / "tampered.json", out / "tampered-report.json")
    _check(rc == 1, f"tampered decode exited {rc}")
    with open(out / "tampered-report.json") as fh:
        got = json.load(fh)
        _check(got["status"] == "inconsistent", got)


if __name__ == "__main__":
    main(sys.argv[1:])
