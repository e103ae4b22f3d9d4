#!/usr/bin/env python3
"""Builds and runs the end-to-end TPC-D service benchmark.

    python3 perfbench/run.py --workload serve-tpcd --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the snakes library from src/ plus the benchmark binary) in
$CARGO_TARGET_DIR, or .bench_build when unset; later runs rebuild
incrementally. Build output goes to stderr. The binary's standard output is
passed through; its last line is the JSON result.

Besides the binary's own checks, this wrapper checks hygiene: the run may
write nothing in the checkout outside the build directory. A run that does
is reported as incorrect and exits non-zero.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-tpcd", "advise-cold", "drift-recluster")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        command = ["cmake", "--build", build_dir, "--target",
                   "tpcd_service_bench", "-j", jobs]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    binary = os.path.join(build_dir, "tpcd_service_bench")
    if not os.path.exists(binary):
        fail("build produced no binary")
    return binary


def snapshot(root, skip):
    """(path, size, mtime) of every file under root outside `skip`."""
    files = set()
    for directory, subdirs, names in os.walk(root):
        subdirs[:] = [d for d in subdirs
                      if os.path.join(directory, d) not in skip]
        for name in names:
            path = os.path.join(directory, name)
            try:
                st = os.lstat(path)
            except OSError:
                continue
            files.add((path, st.st_size, st.st_mtime_ns))
    return files


def commit_of(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("no snakes sources next to perfbench/ (run from a checkout)")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", commit_of(root)]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    skip = {build_dir, os.path.join(root, ".git")}
    before = snapshot(root, skip)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    changed = sorted({p for p, _, _ in snapshot(root, skip) ^ before})

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        fail("benchmark printed no result (exit code %d)" % run.returncode)
    if changed:
        result["correct"] = False
        print("run.py: the run wrote outside the build directory: " +
              ", ".join(changed[:10]), file=sys.stderr)
        lines[-1] = json.dumps(result)
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(run.returncode if not changed else 1)


if __name__ == "__main__":
    main()
