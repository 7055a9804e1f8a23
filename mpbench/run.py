#!/usr/bin/env python3
"""Build the MarcoPolo benchmark from source and run one workload.

    python3 mpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
MarcoPolo libraries plus the mpbench binary into .bench_build/ (a few
minutes); later runs only re-check the build. The binary's standard output
is passed through, so its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output and progress go to standard error. A traced run also writes
its spans to .bench_build/traces/<workload>-seed<n>.json. The exit code is
non-zero, and no result is printed, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "mpbench"
WORKLOADS = ("paper_tables", "multi_attack_50k", "defense_matrix")
# One run must end within 180 s; a traced multi_attack_50k run takes ~60 s.
RUN_TIMEOUT_S = 170


def build() -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "mpbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return BINARY.exists()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="campaign worker threads (0 = the workload's)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0 or args.threads < 0:
        parser.error("--seed, --seconds and --threads must be >= 0")

    if not build():
        print("mpbench: build failed", file=sys.stderr)
        return 1

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--threads", str(args.threads)]
    if args.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--spans-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"mpbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"mpbench: exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("mpbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
