#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is compiled from the checkout's sources into .bench_build/
(configured once, rebuilt incrementally on every run). The last line of
standard output is the benchmark's JSON result; build logs go to
.bench_build/perfbench-build.log.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_LOG = os.path.join(".bench_build", "perfbench-build.log")
WORKLOADS = ("serve_mix", "cold_optimize", "real_train")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    with open(BUILD_LOG, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        code = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
    if code != 0:
        with open(BUILD_LOG) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail("command failed (%d): %s" % (code, " ".join(cmd)))


def build(target):
    os.makedirs(".bench_build", exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target])
    return os.path.join(BUILD_DIR, target)


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10, check=True)
        return out.stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def tree_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    for top in ("src", "scripts", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")) or \
            not os.path.isdir("scripts"):
        fail("run from the root of a ReLM checkout (src/ and scripts/ "
             "not found)")

    if args.self_test:
        sys.exit(subprocess.call([build("perfbench_test")]))
    if args.workload is None:
        fail("--workload is required")

    binary = build("relm_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scripts-dir", "scripts",
           "--trace-dir", os.path.join(".bench_build", "traces"),
           "--git-rev", git_revision(), "--tree-digest", tree_digest()]
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    main()
