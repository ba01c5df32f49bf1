#!/usr/bin/env python3
"""Alternating parent/change pairs of the ats_suite benchmark, with a verdict.

    tools/suite_pairs.py --parent DIR --change DIR [--workloads nested,flood]
                         [--pairs 10] [--seed-offset 1] [--seconds S]
                         [--json FILE]

Each DIR is a checkout (a `git archive` or `git clone` copy, not a
worktree).  Every run goes through that checkout's own
`bench/suite/run.py --trace 0`, so each side builds and runs its own
ats_suite with its own benchmark code.  For each workload it runs
`--pairs` pairs; pair i uses seed i + `--seed-offset` on both sides, and
the side that runs first flips every pair (the parent first in pair 0).
Run length defaults to BENCHMARK.json's run_seconds.

For each end-to-end metric in the change's BENCHMARK.json it prints both
sides' median [q1-q3] (statistics.quantiles, n=4), the change of the
median in percent, and the pairs the change won (ties count for neither
side), then a verdict:

    gain        wins >= 9/10 of the pairs and the medians differ, in the
                better direction, by more than the parent's IQR;
    REGRESSION  the change's median is worse than the parent's by more
                than the metric's bound;
    unresolved  the parent's IQR exceeds the bound (times its median),
                so the pairs cannot tell a change inside the bound;
    within      none of the above: inside the bound, no gain shown.

The checks run in that order.  It also prints every pair's values and
each side's attempted/failed operation counts.  `--json` writes every
run's report, rewritten after each workload.  Exits 1 when any run
fails its checks or reports no result, 0 otherwise (a REGRESSION
verdict included: the table is the output).

Stdlib only.  Start it with nothing else running on the host; pairs only
compare within the window they ran in.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_WIN_SHARE = 0.9


def run_side(checkout, workload, seed, seconds):
    """One run.py report (the last stdout line) from `checkout`."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "suite" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    report = json.loads(lines[-1])
    if not report["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed its "
                         f"checks: {report}")
    return report


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, higher_better, bound):
    """(verdict, change %, wins) for one metric over paired runs."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    better = (lambda c, p: c > p) if higher_better else (lambda c, p: c < p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    pct = 100.0 * (c_med - p_med) / p_med if p_med else 0.0
    iqr = p_q3 - p_q1
    worse_by = (p_med - c_med) if higher_better else (c_med - p_med)
    if (wins >= GAIN_WIN_SHARE * len(parent) and better(c_med, p_med)
            and abs(c_med - p_med) > iqr):
        return "gain", pct, wins
    if worse_by > bound * p_med:
        return "REGRESSION", pct, wins
    if iqr > bound * p_med:
        return "unresolved", pct, wins
    return "within", pct, wins


def cell(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}-{q3:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-offset", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    record = {"seconds": seconds, "pairs": args.pairs,
              "seed_offset": args.seed_offset, "workloads": {}}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = i + args.seed_offset
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                runs[side].append(
                    run_side(checkouts[side], workload, seed, seconds))
            print(f"# {workload} pair {i} seed {seed} done "
                  f"({order[0]} first)", file=sys.stderr, flush=True)
        record["workloads"][workload] = runs

        print(f"\n{workload}: {args.pairs} pairs of {seconds:g} s, seeds "
              f"{args.seed_offset}-{args.seed_offset + args.pairs - 1}")
        for side in ("parent", "change"):
            attempted = sum(r["attempted"] for r in runs[side])
            failed = sum(r["failed"] for r in runs[side])
            print(f"  {side}: {failed} of {attempted} operations failed")
        print(f"  {'metric':13s} {'parent median [q1-q3]':30s} "
              f"{'change median [q1-q3]':30s} {'change':>8s} "
              f"{'wins':>6s}  verdict (bound)")
        for metric in metrics:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                      for side in runs}
            what, pct, wins = verdict(values["parent"], values["change"],
                                      metric["better"] == "higher",
                                      metric["bound"])
            print(f"  {name:13s} {cell(values['parent']):30s} "
                  f"{cell(values['change']):30s} {pct:+7.1f}% "
                  f"{wins:>2d}/{args.pairs:<3d}  {what} "
                  f"({100 * metric['bound']:.0f}%)")
        print("  per pair (parent / change):")
        for i in range(args.pairs):
            first = "parent" if i % 2 == 0 else "change"
            values = "  ".join(
                f"{m['name']} {runs['parent'][i]['metrics'][m['name']]['value']:.4g}"
                f" / {runs['change'][i]['metrics'][m['name']]['value']:.4g}"
                for m in metrics)
            print(f"    {i:2d} seed {i + args.seed_offset:3d} "
                  f"{first:6s} first  {values}", flush=True)
        if args.json:
            args.json.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
