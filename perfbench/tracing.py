"""Spans around calls into multitwist's public functions, recorded from outside.

A `Tracer` wraps every public module-level function of the traced layers
and rebinds each wrapper wherever the package holds a reference to the
original (other modules' `from .x import f` names included), so calls that
`cli` and `recipe` make into other modules are recorded too.  Spans are
kept in memory as (name, start, end, parent) rows under one run id and
written out when the benchmark ends.  Per-operation `QuadExt` arithmetic
is not wrapped: `quadfield` is measured by the kernel micro-measure.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

WRAPPED_MODULES = ("graphs", "surfaces", "flow", "mobius", "recipe", "formats", "svg")


class Tracer:
    """In-memory span recorder; records only while `active` is set.  Span
    times are read from `clock`, a perf_counter that leaves out the time
    of the speed probes."""

    def __init__(self, run_id: str, clock):
        self.run_id = run_id
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.active = False
        self._patches = []  # (namespace, attribute, original)

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return traced

    # -- installing wrappers ----------------------------------------------

    def install(self, package: str = "multitwist"):
        """Wrap the public functions of WRAPPED_MODULES everywhere the
        package refers to them."""
        wrappers = {}
        for layer in WRAPPED_MODULES:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        namespaces = [m for n, m in sys.modules.items()
                      if n == package or n.startswith(package + ".")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self, first: int = 0) -> dict:
        """Self time per layer over spans[first:]: each span's duration
        minus the part of it covered by its direct children."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, parent) in enumerate(spans, start=first):
            out[name.split(".", 1)[0]] += (end - start) - child[k]
        return dict(out)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": k, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def span_stats(spans, name: str) -> tuple:
    """(calls, total seconds) of the spans with this name."""
    calls, total = 0, 0.0
    for span_name, start, end, _ in spans:
        if span_name == name:
            calls += 1
            total += end - start
    return calls, total
