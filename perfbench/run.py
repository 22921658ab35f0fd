#!/usr/bin/env python3
"""Builds and runs the quicsteps simulator benchmark (see README.md).

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first call configures and builds the
simulator from src/ and the perfbench binary into .bench_build/; later calls
rebuild only what changed. Build output goes to stderr. The binary's report
goes to stdout and ends with the result JSON line; the exit code is the
binary's, nonzero when an output check failed.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper_grid", "hotpath_10g", "fabric_10k")


def build():
    """Configures once, builds the perfbench binary, and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources in %s; run it from a full "
                 "checkout" % os.path.join(ROOT, "src"))
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The compiler's temporary files stay inside the build directory.
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # On SIGTERM, SystemExit unwinds subprocess.run, which kills and reaps
    # the child it is waiting for: nothing outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--goldens", os.path.join(HERE, "goldens.txt")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
