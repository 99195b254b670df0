#!/usr/bin/env python3
"""Steadiness check: run one or more workloads over several seeds and
report each end-to-end metric's median and quartile spread.

    python3 nodebench/spread.py --seeds 10 eth-light eth-heavy eth-hot eth-root

Run from the repository root. The spread is (Q3 - Q1) / median over the
runs' values, with quartiles from statistics.quantiles(values, n=4); a
metric is flagged when its spread exceeds a third of its bound in
BENCHMARK.json ("!") or the bound itself ("!!"). setup_s has no spread
requirement and is never flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: run failed\n{proc.stdout}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({args.seeds} seeds)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name, 0.0)
            flag = ""
            if name != "setup_s":
                flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            print(f"  {name:36s} median {statistics.median(vals):12.4f}"
                  f"  spread {spread:6.3f}  bound {bound:4.2f} {flag}")
            if flag:
                print("      runs: " + " ".join(f"{v:.4g}" for v in vals))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
