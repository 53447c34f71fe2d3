#!/usr/bin/env python3
"""Builds and runs the osel benchmark. See perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (CMake, Release) into .bench_build/; later runs only rebuild what
changed. The benchmark's own output passes through; its last line is the
result, checked here against the metric names BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build-output root, as it does
    # for Rust builds; the default keeps the output in .bench_build/.
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(directory):
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        result = subprocess.run(configure, stdout=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(directory, ignore_errors=True)
            fail("configure failed")
    result = subprocess.run(
        ["cmake", "--build", directory, "--target", "osel_perfbench",
         "-j", str(JOBS)],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if result.returncode != 0:
        fail("build failed")
    return os.path.join(directory, "osel_perfbench")


def source_digest():
    """sha256 over the benchmark and library sources, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--", "src", "perfbench"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = out.stdout.strip() or "unknown"
    return commit + ("+dirty" if dirty.stdout.strip() else "")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)
    out_dir = os.path.join(os.path.dirname(directory), "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.relpath(out_dir, ROOT),
               "--golden", os.path.join(HERE, "golden", "paper_suite.golden"),
               "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout)
        fail("the benchmark exited with code %d" % result.returncode)

    last = json.loads(lines[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    missing = set(expected_metrics(args.trace)) ^ set(last["metrics"])
    if missing:
        fail("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
