#!/usr/bin/env python3
"""Build and run the retscan benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench (and the retscan library it links) from the checkout's
sources into .bench_build/perfbench, runs the workload in one process, and
passes its output through. The last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}. Exits non-zero, with
no result line, when the checkout cannot be built or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper-validation", "podem-atpg", "coverage-suite", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        fail("no retscan sources next to perfbench/ (expected src/ and CMakeLists.txt)", 2)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's own.
        done = subprocess.run(step, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def commit_of(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-digests", action="store_true",
                        help="also print every operation's output digest (to re-pin goldens)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root, os.path.join(root, ".bench_build", "perfbench"))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", root, "--commit", commit_of(root)]
    if args.print_digests:
        command.append("--print-digests")
    try:
        done = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
