#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seed N] [--other-seed M]

Run from the root of a checkout.  Checks that
  1. two traced runs with one seed report identical simulated metrics and
     per-layer counts on every workload (host times may differ);
  2. another seed changes the generated inputs of compile-corpus and
     serve-mix, and the same seed reproduces them;
and then runs the known-defect probe (README.md, "Known engine limits"),
reporting whether the defect is still present.  Exits 1 if check 1 or 2
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["compile-corpus", "paper-sweep", "functional-knobs", "serve-mix"]
SEED_SENSITIVE = ["compile-corpus", "serve-mix"]
HOST_UNITS = {"s", "ms", "us"}
HOST_METRICS = {"trace.overhead_pct"}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    summary = os.path.join(HERE, "out", f"summary-{workload}-{seed}-{trace}.txt")
    with open(summary) as f:
        digest = f.readline().split()[1]
    return result, digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    args = ap.parse_args()
    problems = []

    for w in WORKLOADS:
        (a, da), (b, db) = run(w, args.seed, 1), run(w, args.seed, 1)
        for r in (a, b):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w}: run not correct ({r['failed']} failed)")
        exact = [k for k, v in a["metrics"].items()
                 if v["unit"] not in HOST_UNITS and k not in HOST_METRICS]
        diff = [k for k in exact
                if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        if diff:
            problems.append(f"{w}: not repeated exactly: {', '.join(diff)}")
        if da != db:
            problems.append(f"{w}: one seed gave two different inputs")
        print(f"{w}: {len(exact) - len(diff)}/{len(exact)} exact metrics repeat;"
              f" inputs {da}")
        if w in SEED_SENSITIVE:
            _, dc = run(w, args.other_seed, 0)
            if dc == da:
                problems.append(f"{w}: seed {args.other_seed} gave seed {args.seed}'s inputs")
            print(f"{w}: seed {args.other_seed} inputs {dc}")

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    probe = subprocess.run([exe, "--probe", "--seed", str(args.seed)],
                           cwd=ROOT, capture_output=True, text=True)
    print(probe.stdout, end="")
    print("known defect (reducible kernels under faults): "
          + ("still present" if probe.returncode else
             "gone; re-enable the fault case for histogram and dot in knobs.ml"))

    for p in problems:
        print("SELF-CHECK FAILED:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
