#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload crowd-full|walk-local|edge-region \
        --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --headline [--seed N]

Run from the root of a checkout. The library and the benchmark program are
built from source into $CARGO_TARGET_DIR (default .bench_build) on first
use. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; build output goes to standard error.
Exits non-zero, without a result line, when the program cannot be built or
run.
"""

import argparse
import hashlib
import os
import subprocess
import sys

# Seed used while developing a change, and one kept aside to confirm a
# performance claim on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

WORKLOADS = ("crowd-full", "walk-local", "edge-region")
BUILD_TYPE = "Release"


def build(root, build_dir):
    """Configures and builds the perfbench target; returns the binary."""
    source = os.path.join(root, "perfbench")
    subprocess.run(
        ["cmake", "-S", source, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--headline", action="store_true",
                        help="print the paper headline row (nocache vs full)")
    args = parser.parse_args()
    if not args.headline and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    # Recorded work counts are only comparable between runs of one program,
    # so results are kept per binary.
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    out_dir = os.path.join(build_dir, "results", digest)
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--seed", str(args.seed), "--out", out_dir]
    if args.headline:
        command += ["--headline"]
    else:
        command += ["--workload", args.workload, "--seconds",
                    str(args.seconds), "--trace", args.trace]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
