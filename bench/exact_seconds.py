#!/usr/bin/env python3
"""Exact gate on the simulated seconds of a bench campaign.

    python3 bench/exact_seconds.py BASELINE.json FRESH.json

Walks both reports in parallel and compares every field whose name ends
in "_seconds", except the host wall-time fields ("wall_seconds" and its
"wall_*" spread descriptors, which `bench compare` gates with a noise
allowance).  Every other such field is
simulated time, a pure function of the code and the campaign's inputs,
so it must match the baseline bit for bit, in either direction.  A field
present in one report and missing from the other also fails.  Exits 1
on any difference and prints each one.
"""

import json
import sys


def simulated(k):
    return k.endswith("_seconds") and not k.startswith("wall_")


def has_simulated(x):
    if isinstance(x, dict):
        return any(simulated(k) or has_simulated(v) for k, v in x.items())
    if isinstance(x, list):
        return any(has_simulated(v) for v in x)
    return False


def walk(old, new, path, out):
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(set(old) | set(new)):
            p = f"{path}.{k}"
            if k not in old or k not in new:
                if simulated(k) or has_simulated(old.get(k, new.get(k))):
                    out["diffs"].append(f"{p}: only in one report")
            elif simulated(k):
                out["fields"] += 1
                if old[k] != new[k]:
                    out["diffs"].append(f"{p}: {old[k]!r} -> {new[k]!r}")
            else:
                walk(old[k], new[k], p, out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out["diffs"].append(f"{path}: {len(old)} entries -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            walk(a, b, f"{path}[{i}]", out)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.splitlines()[2].strip())
    with open(sys.argv[1]) as f:
        old = json.load(f)
    with open(sys.argv[2]) as f:
        new = json.load(f)
    out = {"fields": 0, "diffs": []}
    walk(old, new, "", out)
    for d in out["diffs"]:
        print(f"simulated time changed: {d}")
    print(f"{sys.argv[2]}: {out['fields']} simulated *_seconds fields, "
          f"{len(out['diffs'])} differ")
    sys.exit(1 if out["diffs"] else 0)


if __name__ == "__main__":
    main()
