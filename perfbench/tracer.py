"""In-memory span tracer that wraps hierasure's public functions from outside.

Nothing under ``src/`` knows about it: ``install`` replaces each traced
function at every name a caller looks it up by (the defining module, and
every hierasure module or class that imported it by name), and
``uninstall`` puts the originals back.

Every call becomes a span (name, start, end, parent span, op id).  Spans are
kept in memory up to a cap and written out when the run ends; per-name
aggregates (calls, inclusive time, self time) and counters are kept for
every call, so the cap never changes a metric.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from contextlib import contextmanager

OP = "op"  # name of the root span the benchmark opens around each operation
MAX_SPANS = 100_000  # spans kept for the trace file; aggregates count them all


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.dropped = 0
        # name -> [calls, inclusive seconds (outermost spans only), self seconds]
        self.agg: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list = []  # open frames: [name, start, child seconds, span index]
        self._depth: dict[str, int] = {}
        self._op_id = None
        self._seen = weakref.WeakKeyDictionary()  # code -> patterns expanded
        self._patched: list = []
        self.active = False  # wrappers record only inside an operation

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str):
        idx = -1
        if len(self.spans) < MAX_SPANS:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [name, time.perf_counter(), 0.0, idx]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        name, start, child, idx = frame
        self._stack.pop()
        dur = end - start
        depth = self._depth[name] - 1
        self._depth[name] = depth
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        if depth == 0:
            a[1] += dur
        a[2] += dur - child
        parent = -1
        if self._stack:
            up = self._stack[-1]
            up[2] += dur
            parent = up[3]
        if idx >= 0:
            self.spans[idx] = (name, start, end, parent, self._op_id)

    @contextmanager
    def op(self, op_id):
        """Root span around one benchmark operation."""
        self._op_id, self.active = op_id, True
        frame = self._enter(OP)
        try:
            yield
        finally:
            self._exit(frame)
            self._op_id, self.active = None, False

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own call into a layer."""
        if not self.active:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name: str, amount: float = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def depth(self, name: str) -> int:
        return self._depth.get(name, 0)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return traced

    def wrap_generator(self, name, fn, counter=None):
        """Each resumption of the generator is one span; yields are counted."""
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.active:
                yield from gen
                return
            while True:
                frame = enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(frame)
                if counter is not None:
                    self.count(counter)
                yield item

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, functions, methods):
        """Patch module-level functions at every binding, and class methods.

        ``functions``: (module, attribute, wrapper factory) triples; the
        original object is replaced wherever a loaded hierasure module binds
        it.  ``methods``: (class, attribute, wrapper factory) triples.
        """
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "hierasure"]
        for module, attr, make in functions:
            original = getattr(module, attr)
            traced = make(original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        for cls, attr, make in methods:
            self._set(cls, attr, make(cls.__dict__[attr]))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def time_in(self, name: str) -> float:
        a = self.agg.get(name)
        return a[1] if a else 0.0

    def calls(self, name: str) -> int:
        a = self.agg.get(name)
        return a[0] if a else 0

    def self_time(self, name: str) -> float:
        a = self.agg.get(name)
        return a[2] if a else 0.0

    def note_expansion(self, code, t) -> bool:
        """Record a (code, pattern) expansion request; True if first seen."""
        seen = self._seen.get(code)
        if seen is None:
            seen = self._seen[code] = set()
        key = tuple(t)
        if key in seen:
            return False
        seen.add(key)
        return True

    def write(self, path, extra: dict):
        payload = dict(extra)
        payload["span_fields"] = ["name", "start", "end", "parent", "op"]
        payload["spans"] = [s for s in self.spans if s is not None]
        payload["spans_dropped"] = self.dropped
        payload["by_name"] = {
            name: {"calls": a[0], "inclusive_s": a[1], "self_s": a[2]}
            for name, a in sorted(self.agg.items())
        }
        payload["counters"] = dict(sorted(self.counters.items()))
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
