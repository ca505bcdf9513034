#!/usr/bin/env python3
"""Builds and runs hostbench, the host-time benchmark of the simulator.

Run from the repository root:

    python3 hostbench/run.py --workload redis_boot --seed 1 --seconds 5 --trace 0

The first run configures and builds hostbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when that is unset;
later runs only rebuild what changed. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result. Traced runs also write
the spans of their last traced pass under <build dir>/out.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["iperf_stream", "redis_boot", "redis_steady", "redis_observed"]


def build(build_dir):
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("hostbench: the simulator sources (src/) are missing")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hostbench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "hostbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"hostbench: build failed: {error}")

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "hostbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
