#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (perfbench/) and the vpd library it links
(src/, one directory up) into .bench_build at the repository root, runs
it, and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The deterministic work counts the binary reports are also kept in
.bench_build/counts, keyed by workload, seed, mode, seconds and a digest
of the sources: a later run of the same seed on the same sources that
counts different work fails. Exits non-zero when a check failed or the binary
could not be built or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vpd_perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the vpd sources (src/) are not next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "vpd_perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def source_digest():
    """Digest of every source the binary's behaviour depends on."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def guard_counts(args, counts):
    """Compares the run's work counts with an earlier run of the seed."""
    key = "{}-{}-{}-{}-{}".format(args.workload, args.seed, args.trace,
                                  args.seconds, source_digest())
    path = os.path.join(BUILD, "counts", key + ".json")
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != counts:
            return "work counts differ from an earlier run of this seed: " \
                "{} vs {}".format(counts, earlier)
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, sort_keys=True)
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not build():
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("the run did not finish within {} s".format(RUN_TIMEOUT_S))
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode == 2 or not lines:
        log("the benchmark binary failed (exit {})".format(run.returncode))
        return 2
    result = json.loads(lines[-1])

    problems = list(result["problems"])
    if result["correct"]:
        problem = guard_counts(args, result["counts"])
        if problem:
            problems.append(problem)
            result["failed"] += 1
            result["correct"] = False
    for problem in problems:
        log(problem)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
