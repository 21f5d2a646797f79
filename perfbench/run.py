#!/usr/bin/env python3
"""Build and run the EIE end-to-end benchmark.

    python3 perfbench/run.py --workload alexnet_fc --seed 1 --seconds 24 --trace 0

Run from the repository root. Configures and builds perfbench/ (its own
CMake package over the library sources in src/) into .bench_build/,
then runs one workload. The benchmark binary prints progress lines and,
as its last stdout line, one JSON object with the result. A failed
build, a failed run or a missing result exits non-zero without a result
line.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "run")
RUN_TIMEOUT_S = 170


def sources_digest():
    """A stamp for the measured code: git HEAD when available,
    otherwise a digest of src/ and perfbench/."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build failed\n")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", WORKDIR, "--commit", sources_digest()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        sys.stdout.write(expired.stdout or "")
        sys.stderr.write("perfbench: run timed out\n")
        return 4
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(l for l in lines
                                   if not l.startswith("{")) + "\n")
        sys.stderr.write("perfbench: run failed (exit %d)\n"
                         % done.returncode)
        return done.returncode or 5
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
