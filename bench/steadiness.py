"""Run-to-run spread of the end-to-end metrics, as a regression gate sees it.

    python3 bench/steadiness.py --workloads bound-curve,mc-capped --seeds 1-10 --seconds 15 [--sets 2] [--out FILE]

Runs ``bench/run.py --trace 0`` once per workload and seed, one run at a
time, in ``--sets`` sets (each set goes over every seed and workload, in
that order).  For every workload, metric and set it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json, and how much
worse each later set's median is than the first's.  ``--out`` also writes
every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return dict(workload=workload, seed=seed, elapsed_s=elapsed, **result)


def summary(runs: list, spec: dict, sets: int) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        per_set = []
        for k in range(sets):
            values = [r["metrics"][name]["value"] for r in runs if r["set"] == k]
            q1, med, q3 = statistics.quantiles(values, n=4)
            per_set.append(dict(median=statistics.median(values), q1=q1, q3=q3, iqr_over_median=(q3 - q1) / statistics.median(values)))
        first = per_set[0]["median"]
        worse = [(s["median"] - first) / first * (1 if lower else -1) for s in per_set[1:]]
        out[name] = dict(unit=metric["unit"], bound=metric["bound"], sets=per_set, later_median_worse_by=worse)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="a range like 1-10, or a comma list")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, seeds = args.workloads.split(","), seed_list(args.seeds)
    runs = []
    for k in range(args.sets):
        for seed in seeds:
            for w in workloads:
                r = dict(run_once(w, seed, args.seconds), set=k)
                runs.append(r)
                values = " ".join(f"{n}={m['value']:.5g}" for n, m in r["metrics"].items())
                print(f"set {k} {w} seed {seed} ({r['elapsed_s']:.1f} s) correct={r['correct']} {values}", flush=True)
    report = {}
    for w in workloads:
        report[w] = summary([r for r in runs if r["workload"] == w], spec, args.sets)
        for name, s in report[w].items():
            spreads = " ".join(f"{x['iqr_over_median']:.3f}" for x in s["sets"])
            medians = " ".join(f"{x['median']:.5g}" for x in s["sets"])
            worse = " ".join(f"{x:+.3f}" for x in s["later_median_worse_by"])
            print(f"{w:12s} {name:16s} bound {s['bound']:.2f}  spread {spreads}  median {medians} {s['unit']}  worse {worse}")
    if args.out:
        Path(args.out).write_text(json.dumps(dict(seconds=args.seconds, runs=runs, summary=report), indent=1))


if __name__ == "__main__":
    main()
