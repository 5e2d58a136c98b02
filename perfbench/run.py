#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <pagerank|sssp|serving|recovery> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds
perfbench/ (which compiles the engine from src/) into .bench_build/perfbench;
later calls only rebuild what changed. The binary's last line of standard
output is the result JSON. Traced runs also write their spans and per-op
counters to .bench_build/perfbench-traces/<workload>-seed<n>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(source_dir, build_dir):
    """Configures (once) and builds the binary; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "rex_perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}", 1)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            if cmd[1] == "-S":
                # Do not leave a half-configured tree for the next call.
                shutil.rmtree(build_dir, ignore_errors=True)
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(build_dir, "rex_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pagerank", "sssp", "serving", "recovery"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(here, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(root, ".bench_build", "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
