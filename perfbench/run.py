#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the library plus the hydra_perfbench binary) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. The binary's report goes to standard output, and
its last line is one JSON object with the keys correct, attempted, failed
and metrics, where metrics holds exactly the end_to_end (--trace 0) or
per_layer (--trace 1) metrics named in BENCHMARK.json. Exits non-zero,
without a result line, when the build or the run fails, and after the
result line when an output check failed. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds hydra_perfbench; returns its path.

    Returns None when configuring or building fails.
    """
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    result = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "hydra_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        return None
    return os.path.join(build_dir, "hydra_perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "hydra", "regenerator.h")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 2

    work_dir = os.path.join(build_dir, "work",
                            "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha()]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 3) or not lines:
        log("perfbench: hydra_perfbench exited with %d" % proc.returncode)
        return 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: hydra_perfbench printed no result line")
        return 2

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("perfbench: metric %s missing or in another unit" % m["name"])
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print("run: %.1f s" % (time.monotonic() - started))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
