#!/usr/bin/env python3
"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/figures.py [--seeds 1-10] [--seconds 12] [--trace 0|1] [workload ...]

Runs perfbench/run.py once per workload and seed, from the root of a
checkout, and prints for every metric the median over the seeds and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.
"""
import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["photo", "geobacter", "lp_sweep", "robust"]


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="12")
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    for w in args.workloads:
        values, shares = {}, set()
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit("%s seed %d: exit %d\n%s" % (w, seed, out.returncode, out.stderr))
            r = json.loads(lines[-1])
            print("%s seed %d: correct %s, %d attempted, %d failed; %s" % (
                w, seed, r["correct"], r["attempted"], r["failed"], lines[0]), flush=True)
            shares.add(r["failed"] / r["attempted"])
            for k, m in r["metrics"].items():
                values.setdefault(k, (m["unit"], []))[1].append(m["value"])
        print("%s: failed share %s" % (w, sorted(shares)))
        print("| metric | unit | median | spread |")
        print("|---|---|---|---|")
        for k, (unit, v) in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            print("| %s | %s | %.6g | %.3f |" % (k, unit, med, spread))
        print(flush=True)


if __name__ == "__main__":
    main()
