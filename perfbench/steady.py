"""Steadiness report: run a workload N times and summarise each metric.

    python3 perfbench/steady.py --workload wide-plan --runs 10 --seed 1 --seconds 8

Runs ``run.py`` once per seed (``seed``, ``seed+1``, ...), one run at a
time, and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``), min and max, and the spread
(interquartile distance as a share of the median), for the probe-scaled
and the raw values, next to each run's median probe reading. This is the
evidence behind the bounds in ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[len("detail "):])
    detail["result"] = json.loads(lines[-1])
    return detail


def summarise(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--out", help="also write every run's detail here (JSON)")
    args = ap.parse_args(argv)
    runs = []
    for i in range(args.runs):
        d = run_once(args.workload, args.seed + i, args.seconds)
        r = d["result"]
        print(f"seed {d['seed']}: probe median {d['probe_ms']['p50']:.3f} ms, "
              f"correct={r['correct']} failed={r['failed']}/{r['attempted']}", flush=True)
        runs.append(d)
    print(f"\n{args.workload}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
    print(f"{'metric':<16}{'kind':<12}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'min':>12}{'max':>12}{'spread':>9}")
    for m in runs[0]["normalised"]:
        if not any(d["normalised"][m] for d in runs):
            continue  # recovery_s on the single-task workloads
        for kind in ("normalised", "raw"):
            s = summarise([d[kind][m] for d in runs])
            print(f"{m:<16}{kind:<12}{s['median']:>12.4f}{s['q1']:>12.4f}{s['q3']:>12.4f}"
                  f"{s['min']:>12.4f}{s['max']:>12.4f}{s['spread']:>9.1%}")
    probes = summarise([d["probe_ms"]["p50"] for d in runs])
    print(f"{'host probe ms':<28}{probes['median']:>12.4f}{probes['q1']:>12.4f}"
          f"{probes['q3']:>12.4f}{probes['min']:>12.4f}{probes['max']:>12.4f}"
          f"{probes['spread']:>9.1%}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
