#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark program (perfbench/bench.ml) is
built with dune from the checkout's own sources, then run once; its last
stdout line is the JSON result.  Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["compile-corpus", "paper-sweep", "functional-knobs", "serve-mix"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    # One worker domain: two-domain runs are bimodal (README.md).
    env = dict(os.environ, MEKONG_DOMAINS="1")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
