#!/usr/bin/env python3
"""Repeat-run check of the benchmark's own noise against its bounds.

    python3 bench/suite/repeat.py [--workloads flood,nested] [--sets 2]
                                  [--runs 5] [--seeds 1,2] [--seconds S]

Runs every workload in `--sets` sets of `--runs` processes through run.py
(--trace 0), cycling through `--seeds`.  For each end-to-end metric it
prints, per set, the median and quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median; then the difference between the first and
last set's medians against the metric's bound in BENCHMARK.json.  Exits 1
when any difference, in either direction, reaches its bound.

The contract check (ten runs, each on another seed, spread under a third
of each bound):  repeat.py --sets 1 --runs 10 --seeds 1,2,3,4,5,6,7,8,9,10
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: failed checks: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    over = 0
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = [run_once(workload, seeds[(s * args.runs + r) % len(seeds)],
                             args.seconds) for r in range(args.runs)]
            sets.append(runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            for runs in sets:
                med, q1, q3, spread = summary([r[name] for r in runs])
                medians.append(med)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"spread {100 * spread:.2f}%")
            line = f"{workload:10s} {name:13s} " + " | ".join(cells)
            if len(medians) > 1:
                diff = (medians[-1] - medians[0]) / medians[0]
                verdict = "ok" if abs(diff) < bound else "OVER"
                over += verdict == "OVER"
                line += (f" | set diff {100 * diff:+.2f}% vs bound "
                         f"{100 * bound:.0f}% {verdict}")
            else:
                line += f" | bound {100 * bound:.0f}%"
            print(line, flush=True)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
