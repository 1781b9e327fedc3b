#!/usr/bin/env python3
"""Builds and runs the ftpde benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: olap-nomat, checkpoint-disk, resume-disk, ft-planning. The
benchmark is built with cargo from this checkout (into $CARGO_TARGET_DIR,
default .bench_build). Its store directories live under .bench_tmp and the
traced run's spans are written to .bench_out. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("olap-nomat", "checkpoint-disk", "resume-disk", "ft-planning")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(root, "perfbench", "benches", "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    tmp = os.path.join(root, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    # One malloc arena: with per-thread arenas the peak RSS depended on
    # which arena each fresh stage thread drew, and split into two modes.
    env["MALLOC_ARENA_MAX"] = "1"
    cmd = [
        os.path.join(target, "release", "ftpde-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(root, ".bench_out"),
    ]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
