#!/usr/bin/env python3
"""Runs one workload of the pdbd benchmark and prints its metrics.

    python3 perfbench/run.py --workload cold-read --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds pdbd and the pdbbench load generator
from source into .bench_build/ (Release), then runs pdbbench, which refuses
to report from a Debug or PDB_ASSERTIONS build and whose last output line is
the JSON result. Build output goes to .bench_build/build.log, never to
standard output.

Extra flags for the benchmark's own tests: --smoke (a tiny configuration of
the workload), --corrupt I (corrupts the I-th reply of client 0 before it is
checked).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
TREE = BUILD / "perfbench"
LOG = BUILD / "build.log"
WORKLOADS = ("hot-read", "cold-read", "ingest-read")


def build():
    """Configures (once) and builds pdbd and pdbbench; returns the tree."""
    BUILD.mkdir(exist_ok=True)
    with open(LOG, "a") as log:
        if not (TREE / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(TREE),
                 "-DCMAKE_BUILD_TYPE=Release", "-DPDB_ASSERTIONS=OFF"],
                stdout=log, stderr=subprocess.STDOUT, check=True, cwd=ROOT)
        subprocess.run(
            ["cmake", "--build", str(TREE), "-j", "4", "--target", "pdbd",
             "pdbbench"],
            stdout=log, stderr=subprocess.STDOUT, check=True, cwd=ROOT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", type=int, default=-1)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        tail = LOG.read_text()[-4000:] if LOG.exists() else ""
        sys.exit(f"run.py: build failed ({error}); see {LOG}\n{tail}")

    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [
        str(TREE / "pdbbench"), "--pdbd", str(TREE / "pdb_tools" / "pdbd"),
        "--work-dir", str(work), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--corrupt", str(args.corrupt)]
    if args.smoke:
        command.append("--smoke")
    # pdbbench stops its own pdbd and exits within 170 s; the timeout here is
    # only a backstop.
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=178)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: pdbbench did not finish within 178 s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
