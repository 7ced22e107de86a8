#!/usr/bin/env python3
"""Build and run the sigcomp repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper_plan|serve_mix>
                             --seed N --seconds S --trace <0|1>

The first run configures and builds the library, sigcompd, sigcomp_prof
and the benchmark binary from source into .bench_build/perfbench (a
Release build through perfbench/CMakeLists.txt); later runs only check
the build is current. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Scratch stores
and the traced run's Chrome trace go under .bench_build/work/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("paper_plan", "serve_mix")

# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; False when either step fails."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no repository sources next to perfbench/",
              file=sys.stderr)
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    return rc == 0


def tool(name):
    return os.path.join(BUILD, "sigcomp", "tools", name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "sigcomp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(WORK, args.workload),
           "--sigcompd", tool("sigcompd"), "--prof", tool("sigcomp_prof")]
    # Its own process group, so sigcompd and set-up probes it spawned
    # are stopped with it whatever way it ends.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        rc = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return rc


if __name__ == "__main__":
    sys.exit(main())
