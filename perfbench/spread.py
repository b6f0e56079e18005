#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload NAME ...]

Runs perfbench/run.py once per seed for each workload and prints, for each
metric, its median and the distance between the first and third quartile
of the runs as a share of the median (statistics.quantiles(values, n=4)),
next to the metric's bound in BENCHMARK.json. Run from the checkout root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    for workload in workloads:
        values = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(root, bench["command"][1]),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=root, stdout=subprocess.PIPE, check=True)
            walls.append(time.monotonic() - start)
            result = json.loads(done.stdout.decode().strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, wall {min(walls):.0f}-"
              f"{max(walls):.0f} s")
        for name, series in values.items():
            s = spread(series)
            bound = bounds[name]
            flag = "" if name == "setup_s" or s < bound / 3 else "  <-- spread"
            print(f"  {name:28s} median {statistics.median(series):12.4f}  "
                  f"range {min(series):.4g}..{max(series):.4g}  "
                  f"IQR/median {s:6.3f}  bound {bound:.2f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
