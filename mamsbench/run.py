#!/usr/bin/env python3
"""Builds and runs the MAMS benchmark.

Usage, from the root of the repository:

    python3 mamsbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 mamsbench/run.py --selftest

The first call configures and builds the simulator and the benchmark with
CMake into .bench_build/ (about half a minute on 4 cores); later calls
rebuild only what changed. The benchmark then runs in a child process whose
output is passed through unchanged, so the last line of standard output is
the run's JSON result. Build output goes to standard error. The exit code is
the benchmark's, or 1 when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "mamsbench")


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    if argv[:1] == ["--selftest"]:
        cmd = [os.path.join(BUILD, "mamsbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "mamsbench")] + argv
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
