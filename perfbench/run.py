"""multitwist benchmark: one seeded workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ./src.
One caller makes every call in turn (no threads, no pool); passes of the
workload's fixed job repeat until S seconds have gone, and at least one
always runs.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  pass_s       median over passes of the time spent inside operations,
               at the reference machine's speed (see "machine speed" in
               passes.py)
  setup_s      median over set-ups (3 before the first pass, one before
               each later pass) of a fresh import of the multitwist
               modules plus the seeded input generation, at the reference
               machine's speed
  peak_rss_mb  peak resident memory of the process
and, as text only, the raw pass time `wall_s` and the `speed_factor` the
times were divided by.
--trace 1 alternates untraced and traced passes of the workload for S
seconds, then makes one traced pass of each other workload, and prints
the per-layer metrics of BENCHMARK.json (see perfbench/README.md).

Lines before the last give every metric by name and unit, the failure
ratio and the named counts; the last line is the JSON result.  Spans of
traced runs are written to .perfbench/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from jobs import JOBS  # noqa: E402
from passes import Pass, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path.cwd()
SETUP_REPEATS = 3
MODULES = ("quadfield", "graphs", "surfaces", "mobius", "flow", "recipe",
           "formats", "svg", "cli")
# printed beside the end-to-end metrics, not part of the JSON result
TEXT_ONLY = {"wall_s": "s", "speed_factor": "ratio"}
# modules each workload calls into; self time is reported for these only
WORKLOAD_LAYERS = {
    "staircase": ("graphs", "surfaces", "flow", "formats"),
    "flow-sweep": ("graphs", "surfaces", "flow", "mobius"),
    "exact": ("graphs", "surfaces", "flow", "mobius"),
    "recipe-cli": ("graphs", "surfaces", "flow", "recipe", "formats", "svg", "cli"),
}


class BenchError(Exception):
    pass


def import_fresh(src: Path):
    """Import multitwist from src, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "multitwist" or n.startswith("multitwist.")]:
        del sys.modules[name]
    pkg = importlib.import_module("multitwist")
    if Path(pkg.__file__).resolve().parent != (src / "multitwist").resolve():
        raise BenchError(f"multitwist imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"multitwist.{m}")
                                    for m in MODULES})


def setup(workload: str, seed: int, src: Path, workdir: Path):
    """Fresh import plus input generation; returns modules, inputs and the
    seconds it took."""
    t0 = time.perf_counter()
    mt = import_fresh(src)
    inp = inputs.make(workload, seed, str(workdir), mt)
    return mt, inp, time.perf_counter() - t0


def run_pass(workload, mt, inp, speed, tracer=None) -> Pass:
    gc.collect()
    p = Pass(speed, tracer)
    art = {}
    if tracer is not None:
        tracer.install()
    p.start = time.perf_counter()
    try:
        JOBS[workload](p, mt, inp, art)
    finally:
        p.end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    p.art = art
    return p


def quadfield_micro(l3_window, fractions_) -> dict:
    """ns per QuadExt add/mul/div on the exact workload's Q(sqrt 5) window
    heights, and per Fraction multiply on the rational parts of the same
    operands."""
    vals = [l3_window.height[e] for e in sorted(l3_window.height)]
    pairs = [(vals[k], vals[(7 * k + 3) % len(vals)]) for k in range(len(vals))]
    fpairs = [(a.a + f, b.a + f) for (a, b), f in zip(pairs, fractions_ * len(pairs))]
    ops = {
        "quadfield.add_ns": (pairs, lambda a, b: a + b),
        "quadfield.mul_ns": (pairs, lambda a, b: a * b),
        "quadfield.div_ns": (pairs, lambda a, b: a / b),
        "fraction.mul_ns": (fpairs, lambda a, b: a * b),
    }
    out = {}
    for name, (ps, fn) in ops.items():
        reps = []
        for _ in range(7):
            t0 = time.perf_counter()
            for a, b in ps:
                fn(a, b)
            reps.append((time.perf_counter() - t0) / len(ps) * 1e9)
        out[name] = statistics.median(reps)
    return out


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def untraced_run(workload, seed, seconds, src, workdir, spec):
    speed = SpeedProbe()
    speed.start()
    try:
        # set up afresh before every pass too, so the set-up samples spread
        # over the whole run like the passes do
        setups = []  # (seconds, seconds at reference speed)

        def timed_setup():
            stolen, t0 = speed.stolen, time.perf_counter()
            mt, inp, t = setup(workload, seed, src, workdir)
            t -= speed.stolen - stolen  # the probes taken meanwhile
            setups.append((t, t / speed.factor(t0, time.perf_counter())))
            return mt, inp

        for _ in range(SETUP_REPEATS):
            mt, inp = timed_setup()
        deadline = time.perf_counter() + seconds
        passes = []
        while not passes or time.perf_counter() < deadline:
            if passes:
                mt, inp = timed_setup()
            passes.append(run_pass(workload, mt, inp, speed))
        refs = [p.wall_ref for p in passes]
    finally:
        speed.stop()
    walls = [p.wall for p in passes]
    speeds = [speed.factor(p.start, p.end) for p in passes]
    metrics = {
        "pass_s": statistics.median(refs),
        "setup_s": statistics.median(t_ref for _, t_ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": statistics.median(walls),
        "speed_factor": statistics.median(speeds),
    }
    notes = {
        "pass_s": f"median of {len(refs)} passes, quartiles {quartiles(refs)}, "
                  f"at reference speed",
        "setup_s": f"median of {len(setups)} set-ups at reference speed; raw median "
                   f"{statistics.median(t for t, _ in setups):.4f} s, first "
                   f"{setups[0][0]:.4f} s includes the cold numpy/click import",
        "peak_rss_mb": "ru_maxrss of this process",
        "wall_s": f"raw median of the same passes, quartiles {quartiles(walls)}",
        "speed_factor": f"mean probe time / reference, quartiles {quartiles(speeds)} "
                        f"over passes, {len(speed.samples)} probes",
    }
    return passes, metrics, notes, spec["end_to_end"]


def quartiles(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{q1:.4f} .. {q3:.4f}"


def traced_run(workload, seed, seconds, src, workdir, spec):
    mt, inp, _ = setup(workload, seed, src, workdir)
    speed = SpeedProbe()
    # spans leave out the time of the speed probes, as operations do
    tracer = Tracer(run_id=f"{workload}.seed{seed}.pid{os.getpid()}",
                    clock=lambda: time.perf_counter() - speed.stolen)
    speed.start()
    try:
        deadline = time.perf_counter() + seconds
        plain, traced = [], []
        while not plain or not traced or time.perf_counter() < deadline:
            # alternate which of the pair goes first, so drift in machine
            # speed does not bias the overhead
            if len(traced) % 2:
                plain.append(run_pass(workload, mt, inp, speed))
            mark = len(tracer.spans)
            p = run_pass(workload, mt, inp, speed, tracer)
            p.self_times = tracer.self_times(mark)
            traced.append(p)
            if len(traced) % 2:
                plain.append(run_pass(workload, mt, inp, speed))
        by_workload = {workload: traced}
        inputs_of = {workload: inp}
        for other in JOBS:
            if other != workload:
                inputs_of[other] = inputs.make(other, seed, str(workdir), mt)
                mark = len(tracer.spans)
                p = run_pass(other, mt, inputs_of[other], speed, tracer)
                p.self_times = tracer.self_times(mark)
                by_workload[other] = [p]
        untraced_ref = statistics.median([p.wall_ref for p in plain])
        traced_ref = statistics.median([p.wall_ref for p in traced])
    finally:
        speed.stop()
    metrics = {}
    for w, ps in by_workload.items():
        for key in ps[0].layer:
            if key not in metrics or w == workload:
                metrics[key] = statistics.median([p.layer[key] for p in ps if key in p.layer])
        for layer in WORKLOAD_LAYERS[w]:
            metrics[f"{layer}.self_s.{w}"] = statistics.median(
                [p.self_times.get(layer, 0.0) for p in ps])
    l3 = by_workload["exact"][0].art.get("l3_window")
    if l3 is not None:
        fracs = [f for _, _, fx, fy, _, _ in inputs_of["exact"]["flows"] for f in (fx, fy)]
        metrics.update(quadfield_micro(l3, fracs))
    metrics["trace.overhead_s"] = traced_ref - untraced_ref
    tracer_dir = ROOT / ".perfbench"
    tracer.dump(tracer_dir / f"spans-{workload}.jsonl")
    notes = {"trace.overhead_s":
             f"traced {traced_ref:.4f} s - untraced {untraced_ref:.4f} s on {workload} "
             f"at reference speed ({100 * (traced_ref / untraced_ref - 1):+.1f}%), "
             f"{len(traced)} traced and {len(plain)} untraced passes; "
             f"{len(tracer.spans)} spans"}
    passes = plain + [p for ps in by_workload.values() for p in ps]
    return passes, metrics, notes, spec["per_layer"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(JOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not spec_path.is_file() or not (src / "multitwist" / "__init__.py").is_file():
        print(f"error: run from the root of a multitwist checkout "
              f"(need BENCHMARK.json and src/multitwist in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = traced_run if args.trace else untraced_run
    try:
        passes, measured, notes, wanted = run(args.workload, args.seed, args.seconds,
                                              src, workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    counts = {}
    for p in passes:
        for k, v in p.counts.items():
            counts[k] = counts.get(k, 0) + v

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}")
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in measured:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": measured[name], "unit": unit}
        print(f"  {name:<44} {fmt(measured[name]):>14} {unit:<6} {notes.get(name, '')}")
    for name, unit in TEXT_ONLY.items():
        if name in measured:
            print(f"  {name:<44} {fmt(measured[name]):>14} {unit:<6} {notes[name]}")
    print(f"  {'fail_ratio':<44} {fmt(failed / attempted):>14} {'ratio':<6} "
          f"{failed} failed of {attempted} operations")
    for k, v in sorted(counts.items()):
        print(f"  {k:<44} {v:>14} count  (named count over all passes)")
    for f in [f for p in passes for f in p.failures][:20]:
        print(f"  FAILED {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
