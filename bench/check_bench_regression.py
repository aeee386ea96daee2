#!/usr/bin/env python3
"""Compares a fresh google-benchmark JSON against the committed trajectory.

Every row is scored by its items_per_second, which google-benchmark
divides by the row's CPU time: items per CPU second. Which CPU time that is
depends on the bench, and the bench sources say it per row: rows that run
one kernel on one pool worker use the main thread's CPU time (the worker
count is pinned to one, so the main thread does all the work), rows that
exist to measure the pool use MeasureProcessCPUTime() (`/process_time` in
the name: all threads' CPU time). A rate per CPU second does not move when
the shared bench host deschedules the process, which a wall-clock rate
does. A `/real_time` row (UseRealTime) reports items per wall-clock second
instead, so the checker refuses it rather than score it as CPU-timed; a
CPU-timed row keeps its wall time in its real_time field.

With --benchmark_repetitions each side is scored by the mean rate over
its repetitions. On the shared 4-vCPU bench host one row's repetitions
spread by ~12% (coefficient of variation) even on one pinned worker, in
phases that outlast a repetition; the fastest repetition is an extreme of
that spread and moved 8% (sd of the normalized ratio) between identical
sweeps, the mean of 30 short interleaved repetitions 3%. Both files must
come from the same protocol (run_benches.sh writes and checks with the
same min_time, repetitions and interleaving); the header prints both
files' num_cpus and date so a cross-host comparison shows.

The bench host is a shared VM whose absolute speed drifts run to run, so
the contract is two-sided rather than a plain absolute bound:
  1. per-benchmark: fail (exit 1) when a benchmark's rate falls more than
     --threshold (default 15%) below the pack (the median new/base
     ratio) — catches kernels that individually got slower;
  2. global: fail when the median ratio itself drops below 0.80 — catches
     across-the-board regressions (dropped flags, shared-path
     pessimization) that per-benchmark normalization would hide. Uniform
     slowdowns inside (0.80, 1.0) are indistinguishable from host drift
     here and pass.
A benchmark present in the committed baseline but absent from the fresh
run fails the check with an explicit message (a silently dropped bench
would otherwise un-gate its kernel); retiring a bench means regenerating
the baseline in the same change. Candidate-only benchmarks are reported
as informational, so adding benches does not break the gate.

With --rows instead of --candidate the checker compares names only: the
rows a bench binary declares (its `--benchmark_list_tests` output, one
name per line) against the rows of the committed file. Any difference
fails, so a row added to or deleted from a bench without regenerating its
BENCH_*.json is caught in seconds, without a sweep.

Usage:
  check_bench_regression.py --baseline BENCH_gemm.json \
      --candidate new/BENCH_gemm.json [--threshold 0.15]
  check_bench_regression.py --baseline BENCH_gemm.json --rows listed.txt
"""

import argparse
import json
import statistics
import sys


def load(path):
    """Returns (context, rates): the JSON's context block and name -> items
    per CPU second, averaged over repetitions (see the module docstring)."""
    with open(path) as f:
        doc = json.load(f)
    samples = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") != "iteration":
            continue
        ips = b.get("items_per_second")
        if not ips:
            continue
        name = b.get("run_name", b["name"])
        if "real_time" in name.split("/"):
            raise ValueError(f"{path}: {name} is timed on the wall clock "
                             f"(UseRealTime); the gate compares items per "
                             f"CPU second, so drop UseRealTime from it")
        samples.setdefault(name, []).append(ips)
    rates = {name: statistics.fmean(v) for name, v in samples.items()}
    return doc.get("context", {}), rates


def check_rows(baseline, listed):
    """Exit status of the --rows comparison: 0 when the bench's listed rows
    and the baseline's rows are the same set of names."""
    with open(baseline) as f:
        doc = json.load(f)
    committed = {b.get("run_name", b["name"])
                 for b in doc.get("benchmarks", [])
                 if b.get("run_type") == "iteration"}
    with open(listed) as f:
        declared = {line.strip() for line in f if line.strip()}
    added = sorted(declared - committed)
    dropped = sorted(committed - declared)
    for name in added:
        print(f"FAIL: {name} is in the bench but not in {baseline}")
    for name in dropped:
        print(f"FAIL: {name} is in {baseline} but not in the bench")
    if added or dropped:
        print("Regenerate the trajectory (bench/run_benches.sh) in the "
              "change that adds or deletes a row.")
        return 1
    print(f"OK: {baseline} holds the bench's {len(declared)} rows.")
    return 0


def describe(label, path, context):
    return (f"{label}: {path} (num_cpus {context.get('num_cpus', '?')}, "
            f"date {context.get('date', '?')})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--candidate")
    which.add_argument("--rows")
    ap.add_argument("--threshold", type=float, default=0.15)
    args = ap.parse_args()
    if args.rows:
        return check_rows(args.baseline, args.rows)

    try:
        base_ctx, base = load(args.baseline)
        cand_ctx, cand = load(args.candidate)
    except ValueError as e:
        print(f"FAIL: {e}")
        return 1
    print(describe("baseline ", args.baseline, base_ctx))
    print(describe("candidate", args.candidate, cand_ctx))
    if not base:
        print(f"note: no comparable entries in {args.baseline}; skipping")
        return 0

    missing = sorted(set(base) - set(cand))
    shared = sorted(set(base) & set(cand))
    if not shared:
        print(f"FAIL: no candidate results for any of the "
              f"{len(base)} baseline benchmarks in {args.baseline} — "
              f"the bench run produced nothing comparable.")
        return 1
    ratios = {n: cand[n] / base[n] for n in shared}
    # The bench host is a shared VM whose absolute speed drifts run to run;
    # the median ratio estimates that drift, and each benchmark is judged
    # against it. A genuine kernel regression shows up as one benchmark
    # falling below the pack; a collapse of the pack itself (e.g. dropped
    # optimization flags) trips the global floor.
    med = statistics.median(ratios.values())
    regressions = []
    print(f"host drift factor (median new/base ratio): {med:.3f}")
    print(f"{'benchmark':<52} {'base':>12} {'new':>12} {'ratio':>8}")
    for name in sorted(base):
        if name not in cand:
            print(f"{name:<52} {base[name]:>12.3e} {'MISSING':>12} {'-':>8}")
            continue
        ratio = ratios[name]
        flag = " REGRESSED" if ratio < (1.0 - args.threshold) * med else ""
        print(f"{name:<52} {base[name]:>12.3e} {cand[name]:>12.3e} "
              f"{ratio:>8.3f}{flag}")
        if flag:
            regressions.append((name, ratio))
    for name in sorted(set(cand) - set(base)):
        print(f"{name:<52} {'absent':>12} {cand[name]:>12.3e} {'new':>8}")

    if missing:
        print(f"\nFAIL: {len(missing)} baseline benchmark(s) missing from "
              f"the fresh run — a dropped bench would silently un-gate its "
              f"kernel. Regenerate the baseline if it was retired on "
              f"purpose:")
        for name in missing:
            print(f"  {name}")
        return 1
    if med < 0.8:
        print(f"\nFAIL: throughput collapsed across the board "
              f"(median ratio {med:.3f} < 0.80) — host drift cannot "
              f"explain this; suspect a build/flags regression.")
        return 1
    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%} below the pack (median {med:.3f}):")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.3f}x")
        return 1
    print(f"\nOK: no regression beyond {args.threshold:.0%} "
          f"({len(shared)} shared entries, median ratio {med:.3f}).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
