"""Run every workload, each in a fresh process, and summarise.

    python3 perfbench/suite.py [--runs N] [--seed S] [--workloads a,b]

Run from the root of a checkout.  Run k of each workload uses seed S+k,
and every run lasts BENCHMARK.json's run_seconds.  For every end-to-end
metric the summary gives the median, the quartiles (statistics.quantiles,
n=4) and the quartile distance as a share of the median, against the
metric's bound in BENCHMARK.json; then the failure ratio per workload.
One traced run of the first workload follows and its per-layer metrics
are printed, with the tracing overhead.  The last line is the whole
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values), "n": len(values)}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="run all multitwist benchmark workloads")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    results = {w: [] for w in workloads}
    for k in range(args.runs):
        for w in workloads:
            res, _ = run_once(w, args.seed + k, seconds, 0)
            results[w].append(res)
            vals = "  ".join(f"{n} {m['value']:.5g} {m['unit']}" for n, m in res["metrics"].items())
            print(f"run {k + 1}/{args.runs}  {w:<11} seed {args.seed + k}  {vals}  "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)

    summary = {}
    print(f"\n{'workload':<11} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'iqr/med':>8} {'bound':>6}  fail_ratio")
    for w, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary[w] = {"fail_ratio": failed / attempted, "attempted": attempted,
                      "correct": all(r["correct"] for r in runs)}
        for name, m in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            summary[w][name] = s
            print(f"{w:<11} {name:<12} {s['median']:>10.5g} {s['q1']:>10.5g} {s['q3']:>10.5g} "
                  f"{s['iqr_share']:>8.4f} {m['bound']:>6}  {failed}/{attempted}")

    res, lines = run_once(workloads[0], args.seed, seconds, 1)
    print(f"\ntraced run of {workloads[0]} (seed {args.seed}):")
    print("\n".join(lines))
    summary["traced"] = {"workload": workloads[0],
                         "metrics": {n: m["value"] for n, m in res["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
