#!/usr/bin/env python3
"""Builds and runs the campaign benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds the
repository's libraries and the benchmark binaries into .bench_build/ (later
calls only rebuild what changed); the build log goes to
.bench_build/build.log and is echoed to stderr only on failure.  The
benchmark's last line of standard output is its JSON result.  --trace 1 runs
the binary with the counting allocator and writes the last traced call's
spans to .bench_build/out/.  --self-test builds and runs the benchmark's own
unit tests.  See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
OUT = BUILD / "out"


def build(targets):
    """Configures (once) and builds `targets`; exits non-zero on failure."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text(errors="replace")[-8000:])
                sys.stderr.write(f"perfbench: build step failed: {' '.join(step)}\n")
                if "-S" in step:
                    # A failed configure leaves a half-written cache behind.
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                sys.exit(3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["sbr-saturate", "obr-cascade", "cache-pollution"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_tests"])
        return subprocess.run([str(BUILD / "perfbench_tests")], cwd=ROOT).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build(["perfbench", "perfbench_traced"])
    OUT.mkdir(exist_ok=True)
    binary = BUILD / ("perfbench_traced" if args.trace else "perfbench")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(OUT)]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
