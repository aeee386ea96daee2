#!/usr/bin/env python3
"""Self-test for check_bench_regression.py — exercises the exit-status
contract on synthetic google-benchmark JSON: pass on matched runs, fail on
a per-benchmark regression, fail loudly (not KeyError) when a baseline
benchmark is missing from the fresh run, fail on across-the-board
collapse, and stay informational for candidate-only benches. Rows whose
real and CPU times differ check that every row is scored by its
items_per_second (items per CPU second), never scaled by real/cpu, and
that a `/real_time` row, whose items_per_second is per wall-clock second,
is refused; repetitions are averaged, also across measurement rounds
joined by merge_bench_json.py. --rows fails when a bench's listed rows and
the committed rows differ either way. Invoked from CTest via
run_checker_selftest.sh."""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, "check_bench_regression.py")
MERGER = os.path.join(HERE, "merge_bench_json.py")


def bench_doc(rates, context=None):
    """google-benchmark JSON with iteration entries per name. A rate is
    items_per_second (real == cpu == 1.0), an (items_per_second, real_time,
    cpu_time) tuple, or a list of either, one entry per repetition."""
    rows = []
    for name, reps in rates.items():
        for rate in reps if isinstance(reps, list) else [reps]:
            ips, real, cpu = (rate if isinstance(rate, tuple)
                              else (rate, 1.0, 1.0))
            rows.append({
                "name": name,
                "run_name": name,
                "run_type": "iteration",
                "items_per_second": ips,
                "real_time": real,
                "cpu_time": cpu,
            })
    return {"context": context or {}, "benchmarks": rows}


def run_checker(tmp, base_rates, cand_rates, base_context=None):
    base = os.path.join(tmp, "base.json")
    cand = os.path.join(tmp, "cand.json")
    with open(base, "w") as f:
        json.dump(bench_doc(base_rates, base_context), f)
    with open(cand, "w") as f:
        json.dump(bench_doc(cand_rates), f)
    proc = subprocess.run(
        [sys.executable, CHECKER, "--baseline", base, "--candidate", cand],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def expect(cond, label, output):
    if not cond:
        print(f"SELF-TEST FAIL: {label}\n--- checker output ---\n{output}")
        sys.exit(1)
    print(f"ok: {label}")


def main():
    steady = {"BM_A": 100.0, "BM_B": 200.0, "BM_C": 300.0}
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_checker(tmp, steady, steady)
        expect(code == 0, "identical runs pass", out)

        regressed = dict(steady, BM_B=100.0)  # 0.5x against a 1.0 pack
        code, out = run_checker(tmp, steady, regressed)
        expect(code == 1 and "REGRESSED" in out,
               "per-benchmark regression fails", out)

        dropped = {k: v for k, v in steady.items() if k != "BM_B"}
        code, out = run_checker(tmp, steady, dropped)
        expect(code == 1 and "missing from" in out and "BM_B" in out,
               "baseline benchmark missing from fresh run fails loudly", out)

        code, out = run_checker(tmp, steady, {})
        expect(code == 1 and "nothing comparable" in out,
               "empty fresh run fails loudly", out)

        collapsed = {k: v * 0.5 for k, v in steady.items()}
        code, out = run_checker(tmp, steady, collapsed)
        expect(code == 1 and "collapsed" in out,
               "across-the-board collapse fails", out)

        uniform_drift = {k: v * 0.9 for k, v in steady.items()}
        code, out = run_checker(tmp, steady, uniform_drift)
        expect(code == 0, "uniform host drift within the floor passes", out)

        added = dict(steady, BM_NEW=50.0)
        code, out = run_checker(tmp, steady, added)
        expect(code == 0 and "new" in out,
               "candidate-only benchmark stays informational", out)

        # Clock handling. items_per_second is already per CPU second: a
        # busier host (real 2x cpu) must not change a row's score, so rating
        # it items*real/cpu (the clock counted twice) fails here.
        cpu_row = "BM_Cpu/64"
        base_clk = dict(steady, **{cpu_row: (100.0, 2.0, 1.0)})
        cand_clk = dict(steady, **{cpu_row: (100.0, 1.0, 1.0)})
        code, out = run_checker(tmp, base_clk, cand_clk)
        expect(code == 0, "a row compares items per CPU second whatever "
               "its real/cpu", out)

        # A real regression that the double count would hide: half the rate
        # with real/cpu doubled (items*real/cpu unchanged).
        cand_cpu_slow = dict(base_clk, **{cpu_row: (50.0, 4.0, 1.0)})
        code, out = run_checker(tmp, base_clk, cand_cpu_slow)
        expect(code == 1 and f"{cpu_row}: 0.500x" in out,
               "a row at half the items per CPU second fails", out)

        # A /real_time row's items_per_second is per wall-clock second: it
        # is refused on either side instead of being scored as CPU-timed.
        wall_row = "BM_Wall/4/real_time"
        for side in ("baseline", "candidate"):
            with_wall = dict(steady, **{wall_row: (200.0, 2.0, 1.0)})
            code, out = (run_checker(tmp, with_wall, steady)
                         if side == "baseline"
                         else run_checker(tmp, steady, with_wall))
            expect(code == 1 and wall_row in out and "wall clock" in out,
                   f"a /real_time row in the {side} is refused", out)

        # Repetitions are averaged, not maxed: one fast repetition among
        # slow ones does not hide a row that got slower.
        reps_base = dict(steady, BM_B=[200.0, 200.0, 200.0])
        reps_cand = dict(steady, BM_B=[200.0, 100.0, 100.0])
        code, out = run_checker(tmp, reps_base, reps_cand)
        expect(code == 1 and "BM_B: 0.667x" in out,
               "repetitions are scored by their mean", out)

        code, out = run_checker(tmp, steady, steady,
                                base_context={"num_cpus": 1,
                                              "date": "2026-08-08"})
        expect(code == 0 and "num_cpus 1, date 2026-08-08" in out,
               "header names each file's num_cpus and date", out)

        # Measurement rounds merge into one file whose repetitions all
        # count: rounds at 200 and 100 score as 150.
        rounds = []
        for i, rate in enumerate([200.0, 100.0]):
            rounds.append(os.path.join(tmp, f"round{i}.json"))
            with open(rounds[-1], "w") as f:
                json.dump(bench_doc(dict(steady, BM_B=[rate, rate]),
                                    {"date": f"round{i}"}), f)
        merged = os.path.join(tmp, "merged.json")
        subprocess.run([sys.executable, MERGER, merged] + rounds, check=True)
        with open(merged) as f:
            doc = json.load(f)
        reps = [b["repetition_index"] for b in doc["benchmarks"]
                if b["name"] == "BM_B"]
        expect(reps == [0, 1, 2, 3] and doc["context"]["date"] == "round0",
               "merged rounds keep every repetition and the first context",
               json.dumps(doc))
        base = os.path.join(tmp, "base.json")
        with open(base, "w") as f:
            json.dump(bench_doc(dict(steady, BM_B=150.0)), f)
        proc = subprocess.run([sys.executable, CHECKER, "--baseline", base,
                               "--candidate", merged],
                              capture_output=True, text=True)
        row = [l for l in proc.stdout.splitlines() if l.startswith("BM_B ")]
        expect(proc.returncode == 0 and row and row[0].endswith(" 1.000"),
               "checker scores the merged rounds' mean", proc.stdout)

        code, out = run_checker(tmp, {}, steady)
        expect(code == 0 and "skipping" in out,
               "empty baseline skips (nothing committed yet)", out)

        # --rows: the names a bench lists against the committed rows.
        base = os.path.join(tmp, "base.json")
        with open(base, "w") as f:
            json.dump(bench_doc(dict(steady, BM_NoItems=0.0)), f)

        def rows_check(names):
            listed = os.path.join(tmp, "listed.txt")
            with open(listed, "w") as f:
                f.write("".join(f"{n}\n" for n in names))
            proc = subprocess.run([sys.executable, CHECKER, "--baseline",
                                   base, "--rows", listed],
                                  capture_output=True, text=True)
            return proc.returncode, proc.stdout + proc.stderr

        same = sorted(steady) + ["BM_NoItems"]
        code, out = rows_check(same)
        expect(code == 0, "listed rows matching the trajectory pass", out)
        code, out = rows_check(same + ["BM_New/8"])
        expect(code == 1 and "BM_New/8 is in the bench" in out,
               "a row missing from the trajectory fails", out)
        code, out = rows_check([n for n in same if n != "BM_B"])
        expect(code == 1 and "BM_B is in" in out and "not in the bench" in out,
               "a trajectory row the bench no longer has fails", out)
    print("all checker self-tests passed")


if __name__ == "__main__":
    main()
