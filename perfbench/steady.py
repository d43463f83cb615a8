#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs two sets of `--runs` runs of every workload, the first with seeds
seed .. seed+runs-1 and the second with the next `--runs` seeds. The
runs of the two sets alternate, and the workload order flips from one
pass to the next, so that a slow drift of the host loads both sets
alike. For each end-to-end metric it prints the median and quartiles
of each set, the spread (Q3 - Q1) / median of each set and the
relative difference between the two medians, and checks the spreads
and the difference against the metric's bound. It also checks that
every run is correct with the same share of failed operations, and
that on the simulator workloads the deterministic counts repeat
exactly when the first seed runs again. Exits 1 if any check fails.

    python3 perfbench/steady.py --seed 1 [--runs 10] [--workloads a,b]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Counts the simulator computes from the seed alone.
DETERMINISTIC = ["msgs_per_query", "bytes_per_query", "hops_per_query", "response_sim_p50_ms"]


def run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}", flush=True)
    return result


def summary(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = [[args.seed + s * args.runs + i for i in range(args.runs)] for s in (0, 1)]
    results = {w: ([], []) for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        sets = (0, 1) if i % 2 == 0 else (1, 0)
        for w in order:
            for s in sets:
                results[w][s].append(run(bench, w, seeds[s][i]))
    ok = True
    for w in workloads:
        print(f"\n{w}: two sets of {args.runs} runs, seeds {seeds[0][0]}..{seeds[0][-1]} "
              f"and {seeds[1][0]}..{seeds[1][-1]}")
        everyone = results[w][0] + results[w][1]
        shares = {r["failed"] / r["attempted"] for r in everyone}
        if len(shares) != 1 or not all(r["correct"] for r in everyone):
            print(f"  FAIL: failed shares {sorted(shares)}, correct "
                  f"{[r['correct'] for r in everyone]}")
            ok = False
        else:
            print(f"  failed share {shares.pop():.6g} in every run")
        print(f"  {'metric':<20} {'median 1':>12} {'q1':>11} {'q3':>11} {'spread 1':>8} "
              f"{'median 2':>12} {'spread 2':>8} {'diff':>7} {'bound':>6}")
        for m in bench["end_to_end"]:
            med1, q1, q3, spread1 = summary([r["metrics"][m["name"]]["value"] for r in results[w][0]])
            med2, _, _, spread2 = summary([r["metrics"][m["name"]]["value"] for r in results[w][1]])
            diff = (med2 - med1) / med1
            bad = max(spread1, spread2, abs(diff)) > m["bound"]
            ok = ok and not bad
            print(f"  {m['name']:<20} {med1:12.6g} {q1:11.6g} {q3:11.6g} {spread1:8.2%} "
                  f"{med2:12.6g} {spread2:8.2%} {diff:+7.2%} {m['bound']:6.0%} "
                  f"{'OVER' if bad else 'ok'}")
        if w.startswith("sim_"):
            first = results[w][0][0]
            again = run(bench, w, seeds[0][0])
            for name in DETERMINISTIC:
                a, b = first["metrics"][name]["value"], again["metrics"][name]["value"]
                if a != b:
                    print(f"  FAIL: {name} {a} then {b} on seed {seeds[0][0]}")
                    ok = False
            print(f"  on seed {seeds[0][0]} again: "
                  + ", ".join(f"{n} {again['metrics'][n]['value']}" for n in DETERMINISTIC))
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
