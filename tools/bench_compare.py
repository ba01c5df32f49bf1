#!/usr/bin/env python3
"""Diff two Google Benchmark JSON files and print per-benchmark deltas.

The CI tier-1 job uploads a `bench-json` artifact (BENCH_*.json) per
run; this tool turns two of those into a perf-trajectory table:

    tools/bench_compare.py old/BENCH_micro_ablation.json \\
                           new/BENCH_micro_ablation.json

For each benchmark name present in both files it prints the old and new
primary metric (items_per_second when the bench reports it, real_time
otherwise) and the relative delta.  Positive deltas mean the NEW run is
better: items/sec counts up, time counts down.  Under
--benchmark_repetitions a benchmark appears as several same-named
iteration rows plus mean/median/stddev aggregates; the tool averages
the iteration rows per name (equivalent to the mean aggregate) so no
single noisy repetition decides a delta and aggregates never
double-count.

Before the table it prints each file's host context (`num_cpus`,
`mhz_per_cpu` from the JSON `context` block), and a `host differs` line
when the two disagree: a delta across hosts measures the hosts, not the
code.

Exit status is 0 unless --fail-below is given, in which case the run
fails when any baseline benchmark's delta falls below the threshold
(percent, e.g. -10), its metric kind changed, or it is missing from the
new file — a gate must not pass a row it could not compare.

Stdlib only; no third-party deps.
"""

import argparse
import json
import sys


HOST_KEYS = ("num_cpus", "mhz_per_cpu")


def load_benchmarks(path):
    """(rows, host) for one benchmark JSON file.

    rows maps name -> (metric_value, metric_kind) for the real benchmark
    rows.  Same-named iteration rows (one per --benchmark_repetitions
    run) are averaged; aggregate rows are skipped so they cannot
    double-count.  host maps each HOST_KEYS entry to its context value
    (None when the file does not record it).
    """
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    context = data.get("context", {})
    host = {key: context.get(key) for key in HOST_KEYS}
    sums = {}
    for bench in data.get("benchmarks", []):
        # Aggregates carry run_type == "aggregate"; plain runs either say
        # "iteration" or (older libbenchmark) omit the field.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench.get("name")
        if name is None:
            continue
        if "items_per_second" in bench:
            value, kind = float(bench["items_per_second"]), "items/s"
        elif "real_time" in bench:
            value, kind = float(bench["real_time"]), bench.get("time_unit", "ns")
        else:
            continue
        total, count, prev_kind = sums.get(name, (0.0, 0, kind))
        if prev_kind != kind:
            continue  # metric kind changed mid-file; keep the first kind
        sums[name] = (total + value, count + 1, kind)
    rows = {
        name: (total / count, kind)
        for name, (total, count, kind) in sums.items()
    }
    return rows, host


def delta_pct(old, new, kind):
    """Relative improvement in percent; sign normalized so + is better."""
    if old == 0:
        return 0.0
    raw = (new - old) / old * 100.0
    return raw if kind == "items/s" else -raw


def format_value(value, kind):
    if kind == "items/s":
        return f"{value:,.0f} {kind}"
    return f"{value:,.2f} {kind}"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("old", help="baseline benchmark JSON")
    parser.add_argument("new", help="candidate benchmark JSON")
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="PCT",
        help="exit 1 if any benchmark's delta is below PCT percent "
        "(e.g. -10 tolerates up to a 10%% regression)",
    )
    args = parser.parse_args(argv)

    old, old_host = load_benchmarks(args.old)
    new, new_host = load_benchmarks(args.new)

    for label, path, host in (("old", args.old, old_host),
                              ("new", args.new, new_host)):
        fields = " ".join(f"{key}={host[key]}" for key in HOST_KEYS)
        print(f"{label} host: {fields} ({path})")
    differing = [f"{key} {old_host[key]} -> {new_host[key]}"
                 for key in HOST_KEYS if old_host[key] != new_host[key]]
    if differing:
        print("host differs: " + ", ".join(differing))
    print()

    common = [name for name in old if name in new]
    if not common:
        print("no common benchmarks between the two files", file=sys.stderr)
        return 2

    width = max(len(name) for name in common)
    print(f"{'benchmark':<{width}}  {'old':>18}  {'new':>18}  {'delta':>8}")
    failed = []  # (name, reason)
    for name in common:
        old_value, old_kind = old[name]
        new_value, new_kind = new[name]
        if old_kind != new_kind:
            print(f"{name:<{width}}  metric kind changed "
                  f"({old_kind} -> {new_kind}); not comparable")
            failed.append((name, f"metric kind changed ({old_kind} -> "
                                 f"{new_kind})"))
            continue
        pct = delta_pct(old_value, new_value, old_kind)
        print(
            f"{name:<{width}}  {format_value(old_value, old_kind):>18}  "
            f"{format_value(new_value, new_kind):>18}  {pct:>+7.1f}%"
        )
        if args.fail_below is not None and pct < args.fail_below:
            failed.append((name, f"{pct:+.1f}%"))

    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    if only_old:
        print(f"\nonly in {args.old}: " + ", ".join(only_old))
        failed.extend((name, "missing from the new file") for name in only_old)
    if only_new:
        print(f"only in {args.new}: " + ", ".join(only_new))

    if args.fail_below is not None and failed:
        print(
            f"\nFAIL: {len(failed)} benchmark(s) regressed past "
            f"{args.fail_below}% or could not be compared:",
            file=sys.stderr,
        )
        for name, reason in failed:
            print(f"  {name}: {reason}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
