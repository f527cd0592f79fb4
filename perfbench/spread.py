#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload with seeds 1..RUNS, untraced, for the run length
BENCHMARK.json sets, and prints per metric the median and the
interquartile distance as a share of the median (quartiles as
`statistics.quantiles(values, n=4)` gives them), next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload city-tree --runs 10

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"# seed {seed} done", file=sys.stderr)

    print(f"{'metric':<30} {'median':>16} {'spread':>8} {'bound':>6}  values")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        shown = " ".join(f"{x:.4g}" for x in xs)
        print(f"{name:<30} {med:>16.6g} {spread:>8.4f} {bounds[name]:>6}  {shown}")


if __name__ == "__main__":
    main()
