#!/usr/bin/env python3
"""Builds and runs the libses benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script configures and builds perfbench/CMakeLists.txt (which compiles
the library from ../src) into $CARGO_TARGET_DIR/perfbench, defaulting to
.bench_build/perfbench, then runs the ses_perfbench binary with the given
arguments. Build output goes to stderr; the binary's standard output is
passed through unchanged, so its last line is the JSON result. Exits non-zero
without printing a result when the build or the run fails.
"""

import fcntl
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                         build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        command = ["cmake", "--build", build_dir, "--target", "ses_perfbench",
                   "-j", jobs]
        return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "ses_perfbench")
    trace_dir = os.path.join(root, target, "traces")
    command = [binary, "--trace-dir", trace_dir] + sys.argv[1:]
    try:
        return subprocess.run(command, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
