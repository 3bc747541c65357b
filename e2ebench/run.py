#!/usr/bin/env python3
"""Builds the SESAME end-to-end benchmark from source and runs it.

Usage (from the repository root):

    python3 e2ebench/run.py --workload paper_campaigns --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test        # unit tests of the benchmark's helpers
    python3 e2ebench/run.py --pin              # recompute e2ebench/data/digests.txt

Every argument except --self-test is handed to the e2ebench binary, together
with the pinned-digest table and the directory for span dumps. The build
goes to .bench_build/ and span dumps to .bench_out/, both under the
repository root; build logs go to stderr so that the last line of stdout is
the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "data", "digests.txt")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("e2ebench: no SESAME source tree next to %s\n" % HERE)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--parallel", "4",
         "--target", "e2ebench", "e2ebench_selftest"],
    ]
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main(argv):
    if not build():
        return 2
    if argv == ["--self-test"]:
        return subprocess.call([os.path.join(BUILD, "e2ebench_selftest")])
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "e2ebench"), "--digests", DIGESTS,
           "--out-dir", OUT] + argv
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
