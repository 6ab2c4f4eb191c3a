#!/usr/bin/env python3
"""Builds the FlexVec benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program's sources (src/) and this
package are configured into the build directory named by CARGO_TARGET_DIR
(default .bench_build), the driver is built there, and its standard output
is passed through: every metric by name with its unit, then, as the last
line, the JSON result. Spans of the last traced repetition are written to
<build dir>/spans/<workload>-seed<N>.jsonl. The exit status is the
driver's: 0 when every output was correct, 1 when not, 2 on a usage or
build error.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("figure8_full", "figure8_sampled_j2", "fuzz_storm")
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("program sources (src/CMakeLists.txt) not found; "
             "run from the root of a FlexVec checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                  "--target", "flexvec-perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "flexvec-perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if os.path.commonpath([root, build_dir]) != root:
        fail(f"build directory {build_dir} is outside the checkout")
    binary = build(root, build_dir)

    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
