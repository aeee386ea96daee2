#!/usr/bin/env python3
"""Runs alternating perfbench pairs of two checkouts and compares them.

Usage, from anywhere:

    python3 bench/perf_pairs.py --parent DIR --change DIR \\
        --workload <name> [--pairs 10] [--seconds 30] [--seed 1]

Pair i runs `perfbench/run.py --trace 0` once in each checkout with seed
`--seed + i`; even pairs run the parent first, odd pairs the change first,
so a drift in machine load does not favour one side. Each checkout builds
its own perfbench binary on its first run (untimed).

For every end-to-end metric BENCHMARK.json declares (read from the change
checkout), prints the median change against the parent, the parent's
quartile spread, how many pairs the change won (ties count for neither)
and a verdict:

  ok          the change's median is within the metric's bound
  regressed   the change's median is worse than the bound allows
  unresolved  the parent's quartile spread exceeds the bound, so the runs
              cannot tell, unless every change run beats every parent run

Exits 1 when any metric regressed, 2 when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) of a non-empty sample."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative(delta, base):
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def summarize(parent, change, better, bound):
    """Compares paired samples of one metric.

    `parent[i]` and `change[i]` come from pair i; `better` is "lower" or
    "higher"; `bound` is the relative worsening BENCHMARK.json allows.
    Returns a dict: median_change (relative, signed as measured),
    parent_spread (relative interquartile range), wins, pairs, verdict.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if better == "lower" else -1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    median_change = relative(cmed - pmed, pmed)
    spread = relative(p3 - p1, pmed)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    if sign > 0:
        separated = max(change) < min(parent)
    else:
        separated = min(change) > max(parent)
    if spread > bound and not separated:
        verdict = "unresolved"
    elif sign * median_change > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {"median_change": median_change, "parent_spread": spread,
            "wins": wins, "pairs": len(parent), "verdict": verdict}


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"perf_pairs: run failed in {checkout} (exit "
                 f"{proc.returncode}): {' '.join(cmd)}")
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("perf_pairs: --pairs must be >= 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload,
                                       args.seed + i, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs, {args.seconds:g} s runs")
    print(f"{'metric':<16} {'parent':>12} {'change':>12} {'median':>9} "
          f"{'p.iqr':>8} {'wins':>6} {'bound':>6}  verdict")
    regressed = False
    for spec in specs:
        name = spec["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        s = summarize(parent, change, spec["better"], spec["bound"])
        regressed = regressed or s["verdict"] == "regressed"
        print(f"{name:<16} {statistics.median(parent):>12.4g} "
              f"{statistics.median(change):>12.4g} "
              f"{s['median_change']:>+9.2%} {s['parent_spread']:>8.2%} "
              f"{s['wins']:>3}/{s['pairs']:<2} {spec['bound']:>6.0%}  "
              f"{s['verdict']}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
