#!/usr/bin/env python3
"""Build and run the node benchmark.

    python3 nodebench/run.py --workload eth-heavy --seed 1 --seconds 30 --trace 0
    python3 nodebench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. The first call configures and builds
nodebench/ (which compiles ../src) into .bench_build/nodebench; later calls
only rebuild what changed. The benchmark's output passes through, and its
last stdout line is the JSON result. `--workload all` runs every workload in
turn and ends with one JSON line over all of them, metrics prefixed with the
workload name. The exit code is 0 only when every correctness check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nodebench")
WORKLOADS = ("eth-light", "eth-heavy", "eth-hot", "eth-root")


def build():
    """Configure (once) and build node_bench; build chatter goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "node_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("nodebench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "node_bench")


def run(binary, workload, args):
    """Run one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode, None
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("nodebench: malformed result line")
    return (0 if result["correct"] else 1), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        return run(binary, args.workload, args)[0]

    exit_code = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, result = run(binary, workload, args)
        exit_code = exit_code or code
        if result is None:
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
