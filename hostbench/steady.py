#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady across seeds.

Runs the command of BENCHMARK.json once per seed on one workload and, for
each end-to-end metric, prints the median of the runs and the distance
between their first and third quartiles as a share of the median, next to
the metric's bound. A spread above the bound means the metric cannot tell
a regression of that size from noise.

    python3 hostbench/steady.py --workload serve --seeds 1-10

Run from the repository root. Results are also written to
hostbench/out/steady-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        start = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        wall = time.monotonic() - start
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed:>3} wall {wall:6.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
        runs.append({"seed": seed, "wall_s": wall, **result})

    print(f"\n{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread < metric["bound"] / 3 else (
            "WIDE" if spread < metric["bound"] else "OVER")
        print(f"{name:<20} {med:>12.5g} {spread:>8.3f} {metric['bound']:>6} {flag}")
    os.makedirs("hostbench/out", exist_ok=True)
    with open(f"hostbench/out/steady-{args.workload}.json", "w") as f:
        json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
