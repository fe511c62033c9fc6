#!/usr/bin/env python3
"""Steadiness check: runs each workload N times with different seeds and
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) against the metric's bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload serve-mix --first-seed 11

The command, run length, workloads and bounds come from BENCHMARK.json.
Exits 1 when a run fails, a run is incorrect, the failed share differs
between runs, or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(spec, workload, seed, seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if not all(r["correct"] for r in results) or len(shares) != 1:
            ok = False
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds} s each, "
              f"failed share {sorted(shares)}, all correct: "
              f"{all(r['correct'] for r in results)}")
        print(f"  {'metric':<16} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  ok")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            within = spread <= metric["bound"]
            if not within:
                ok = False
            print(f"  {name:<16} {metric['unit']:<7} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.4f} {metric['bound']:>6}  {'yes' if within else 'NO'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
