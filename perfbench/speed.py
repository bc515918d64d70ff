"""Scale measured times to a fixed machine speed.

The benchmark runs on shared virtual machines whose speed drifts by 20-40%
over seconds as neighbours load the host; a trivial loop timed in 4-second
windows spread that much here.  Every timed stretch of work is therefore
bracketed by runs of a fixed reference loop, and its time is multiplied by
``NOMINAL_S / reference time`` (the two bracketing references averaged).

The reference does what hierasure's hot paths do (small tuple-valued field
elements, modular arithmetic, method calls, allocation), so host slowdowns
hit both alike: against it the time of a decode-and-construct mix spread
3-4% where the raw time spread 41%.  It is the benchmark's own code, so no
change to the library changes it.
"""

from __future__ import annotations

import time

# A round figure for one reference unit on the 2-core Xeon VM (CPython 3.11)
# the benchmark was tuned on: 6.5 ms at best, 12 ms median under its usual
# load.  Scaled times read as seconds on that machine at that speed.
NOMINAL_S = 0.010
REF_S = 0.1  # reference time at each end of a chunk
CHUNK_S = 1.0  # work between two reference runs, at least one operation


class _Vec:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def mul(self, other, p=7):
        a, b = self.c, other.c
        return _Vec(tuple((a[i] * b[(i + 1) % 4] + a[(i + 2) % 4] * b[i]) % p for i in range(4)))

    def add(self, other, p=7):
        return _Vec(tuple((x + y) % p for x, y in zip(self.c, other.c)))


def _unit() -> float:
    start = time.perf_counter()
    x, y, acc = _Vec((1, 2, 3, 4)), _Vec((5, 6, 0, 1)), _Vec((0, 0, 0, 0))
    for _ in range(2500):
        acc = acc.add(x.mul(y))
        if any(acc.c):
            x = acc
    return time.perf_counter() - start


def reference() -> float:
    """Mean seconds per unit of the reference loop, over REF_S seconds.

    A single 10 ms unit mostly measures jitter; a tenth of a second of them
    follows the slower drift that moves the operations.
    """
    total, n = 0.0, 0
    while total < REF_S:
        total += _unit()
        n += 1
    return total / n


def timed_chunks(step, keep_going):
    """Run ``step()`` in chunks bracketed by reference runs.

    ``step`` runs one unit of work and returns its raw seconds (or None if
    it produced no time).  ``keep_going(n)`` says whether to start unit n.
    Returns (raw seconds, scaled seconds) of every timed unit.
    """
    raw, scaled = [], []
    before = reference()
    n = 0
    while keep_going(n):
        chunk = []
        chunk_end = time.perf_counter() + CHUNK_S
        while True:
            t = step()
            n += 1
            if t is not None:
                chunk.append(t)
            if time.perf_counter() >= chunk_end or not keep_going(n):
                break
        after = reference()
        factor = NOMINAL_S / ((before + after) / 2)
        raw.extend(chunk)
        scaled.extend(t * factor for t in chunk)
        before = after
    return raw, scaled
