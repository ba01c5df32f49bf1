#!/usr/bin/env python3
"""Build ats_suite from this checkout and run one workload.

    python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 runs the end-to-end measurement, --trace 1 the traced per-layer
run.  The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; build output goes to stderr.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics,
holding exactly the end_to_end (or per_layer) metrics BENCHMARK.json names.
Exits non-zero without that line when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD_TIMEOUT_S = 840
# One workload's run takes about --seconds plus set-up; the whole call
# must end within 180 s.
RUN_SLACK_S = 100


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", str(SUITE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "ats_suite", "-j", jobs],
    ):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return build_dir / "ats_suite"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root / "suite")
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--mode", "layers" if args.trace else "e2e",
         "--out", str(build_root / "out")],
        stdout=subprocess.PIPE, text=True, timeout=args.seconds + RUN_SLACK_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"run.py: ats_suite exited {proc.returncode} without a report",
              file=sys.stderr)
        return 1
    report = json.loads(lines[-1])

    metrics = {}
    for metric in wanted:
        got = report["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            print(f"run.py: ats_suite reported {got} for {metric}",
                  file=sys.stderr)
            return 1
        metrics[metric["name"]] = got
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if proc.returncode == 0 and report["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        sys.exit(1)
