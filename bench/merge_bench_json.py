#!/usr/bin/env python3
"""Merges the google-benchmark JSON files of one suite's measurement rounds
into one file, as if the rounds' repetitions had come from one run.

run_benches.sh measures each suite in several rounds spread over the whole
sweep (see its header); this joins a suite's rounds into the
BENCH_<kind>.json the trajectory keeps. The first round's context is kept
(date, host, num_cpus). Only iteration rows are kept: each round's
aggregates (mean, median, stddev, cv) cover that round alone, so they are
dropped rather than mislabelled. repetition_index runs over all rounds and
`repetitions` is the merged count.

Usage:
  merge_bench_json.py OUT.json ROUND1.json [ROUND2.json ...]
"""

import json
import sys


def merge(paths):
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
    rows = [b for doc in docs for b in doc.get("benchmarks", [])
            if b.get("run_type") == "iteration"]
    counts = {}
    for b in rows:
        name = b.get("run_name", b["name"])
        b["repetition_index"] = counts.get(name, 0)
        counts[name] = b["repetition_index"] + 1
    for b in rows:
        b["repetitions"] = counts[b.get("run_name", b["name"])]
    return {"context": docs[0].get("context", {}), "benchmarks": rows}


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], "w") as f:
        json.dump(merge(sys.argv[2:]), f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
