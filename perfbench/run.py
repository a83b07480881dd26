#!/usr/bin/env python3
"""Build the benchmark program from this checkout's sources and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <kv-armed|repro-virtual|hits> \
        --seed <n> --seconds <s> --trace <0|1>

The bench program (perfbench/*.cc) is compiled together with the library in
../src into $CARGO_TARGET_DIR (default .bench_build); later runs rebuild only
what changed.  The last line of standard output is the result object; the lines
before it give the host, every metric with its unit and sample count, and any
failed output check.  Exit status: 0 ok, 1 an output check failed, 2 the
benchmark could not run (no sources, build failure, refused build), 3 the run
timed out.  See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SOURCE = os.path.join(REPO, "src")
WORKLOADS = ("kv-armed", "repro-virtual", "hits")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """Commit of a git checkout, else a digest of the sources it builds."""
    if os.path.isdir(os.path.join(REPO, ".git")):
        try:
            out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            dirty = subprocess.run(["git", "-C", REPO, "status", "--porcelain",
                                    "src", "perfbench"],
                                   capture_output=True, text=True).stdout
            return out.stdout.strip() + ("-dirty" if dirty.strip() else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for root in (SOURCE, HERE):
        for path, dirs, files in os.walk(root):
            dirs.sort()
            for name in sorted(files):
                full = os.path.join(path, name)
                digest.update(os.path.relpath(full, REPO).encode())
                with open(full, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the bench program; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one tree
        with open(log_path, "w") as log:
            steps = []
            if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
                generator = ["-G", "Ninja"] if shutil.which("ninja") else []
                steps.append(["cmake", "-S", HERE, "-B", build_dir] + generator +
                             ["-DCMAKE_BUILD_TYPE=Release"])
            jobs = str(min(4, os.cpu_count() or 1))
            steps.append(["cmake", "--build", build_dir, "--target",
                          "cbp_perfbench", "-j", jobs])
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "cbp_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is here."""
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            spec = json.load(f)
        return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read metric names from %s: %s" % (path, e))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SOURCE, "core", "engine.h")):
        fail("library sources not found in %s" % SOURCE)
    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    binary = build(build_dir)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    # A fresh scratch directory per run, removed whatever happens to the
    # bench program: the broker socket of a killed run cannot outlive it.
    scratch = tempfile.mkdtemp(prefix="run.", dir=build_dir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--tmpdir", os.path.relpath(scratch), "--trace-dir", trace_dir,
             "--source", source_id()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        fail("bench program exited with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("bench program printed no result")
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        print("\n".join(lines[:-1]))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(expected - set(result["metrics"])),
            sorted(set(result["metrics"]) - expected)))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
