"""One pass of a workload's job: timed operations, output checks, counts.

An operation is one top-level call into the package or one CLI command.
It fails if it raises, if a CLI command exits with another code than the
one the benchmark's own check expects, or if its output check fails.
Known defects of the program whose outputs are nonetheless consistent
(a CLI verdict that correctly reports a surface breaking the modulus law,
a float verdict contradicting the exact one) are counted by name instead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import signal
import statistics
import time
from collections import Counter
from fractions import Fraction

import click

# -- machine speed ---------------------------------------------------------
#
# The benchmark runs on a few cores of a shared host whose speed drifts by
# tens of percent within seconds, and every operation slows with it, so
# raw pass times of one program spread past any useful bound.  A
# `SpeedProbe` times a fixed piece of pure Python that never touches the
# package (attribute, float and dict work on small objects, then Fraction
# arithmetic) every PROBE_EVERY_S of wall time, from a SIGALRM handler, so
# the samples spread evenly over the operations however long they are.
# Pass and set-up times are reported divided by the mean probe time around
# them over PROBE_REFERENCE_S: seconds at the speed the probe has on the
# reference machine.  The mean, not the median, because a pass's time adds
# up its slow and fast stretches in proportion.

# mean probe time on the reference machine (2-vCPU VM, Python 3.11.7) in a
# stretch when its host was not slowing it
PROBE_REFERENCE_S = 2.3e-4
PROBE_EVERY_S = 0.02
PROBE_PAD_S = 0.1  # samples this close to an interval count for it too


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


_FRACTIONS = [Fraction(3 * k + 1, 7 * k + 5) for k in range(41)]


def _probe_kernel():
    table = {}
    acc = 0.0
    for i in range(200):
        pt = _Point(i, i * 0.5)
        table[i % 37] = pt
        acc += math.sqrt(pt.x * pt.x + pt.y)
    total = 0
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        total += a * b
    return acc, total


class SpeedProbe:
    """Samples (time, probe seconds) while started; `stolen` adds up the
    time the handler took, which `Pass.op` leaves out of its operations."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def _tick(self, signum, frame):
        # A first, untimed run brings the kernel back into the caches the
        # program was using, and the collector is held off, so that neither
        # the program's working set nor its heap shows in the sample.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe_kernel()
        t1 = time.perf_counter()
        _probe_kernel()
        t2 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((t0, t2 - t1))
        self.stolen += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference machine the probe ran from
        start to end (perf_counter times)."""
        near = [s for t, s in self.samples if start - PROBE_PAD_S <= t <= end + PROBE_PAD_S]
        if not near:
            raise RuntimeError("no speed probe sample near the interval")
        return statistics.fmean(near) / PROBE_REFERENCE_S


class OpFailed(Exception):
    """Raised by `Pass.op` after recording a failed operation."""


class Pass:
    def __init__(self, speed: SpeedProbe, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.start = self.end = 0.0  # perf_counter bounds, set by the runner
        self.ops = []  # (name, seconds)
        self.failed_ops = set()
        self.failures = []
        self.counts = Counter()
        self.layer = {}
        self.last_seconds = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def wall(self) -> float:
        """Seconds spent inside operations; checks between them are excluded."""
        return sum(s for _, s in self.ops)

    @property
    def wall_ref(self) -> float:
        """`wall` at the reference machine's speed."""
        return self.wall / self.speed.factor(self.start, self.end)

    def mark(self) -> int:
        return len(self.tracer.spans) if self.tracer else 0

    def spans_since(self, mark: int) -> list:
        return self.tracer.spans[mark:] if self.tracer else []

    def op(self, name: str, fn, *args, span: str = None, **kwargs):
        """Run one timed operation; a raise is recorded and re-raised as OpFailed."""
        tr = self.tracer
        idx = None
        if tr is not None:
            tr.active = True
            if span:
                idx = tr.begin(span)
        stolen = self.speed.stolen
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed_ops.add(len(self.ops))
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        finally:
            # the speed probes taken meanwhile are left out
            self.last_seconds = time.perf_counter() - t0 - (self.speed.stolen - stolen)
            if idx is not None:
                tr.end(idx)
            if tr is not None:
                tr.active = False
            self.ops.append((name, self.last_seconds))

    def check(self, ok: bool, what: str):
        """Output check of the most recent operation."""
        if not ok:
            self.failed_ops.add(len(self.ops) - 1)
            self.failures.append(f"{self.ops[-1][0]}: check failed: {what}")

    @contextlib.contextmanager
    def guard(self):
        """Skip the rest of a block once one of its operations has failed."""
        try:
            yield
        except OpFailed:
            pass

    def cli(self, main, command: str, args: list) -> tuple:
        """Run `multitwist <command> <args>` in-process; returns (exit code,
        stdout, stderr) and records the time under cli.<command>.s."""
        code, out, err = self.op(f"cli.{command}", _invoke, main, [command] + args,
                                 span=f"cli.{command}")
        key = f"cli.{command}.s"
        self.layer[key] = self.layer.get(key, 0.0) + self.last_seconds
        if code != 0:
            self.counts["cli.exit_nonzero"] += 1
        return code, out, err


def _invoke(main, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="multitwist", standalone_mode=False)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except click.exceptions.ClickException as exc:
            code = exc.exit_code
            err.write(exc.format_message())
    return code, out.getvalue(), err.getvalue()
