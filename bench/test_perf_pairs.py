#!/usr/bin/env python3
"""Self-test for perf_pairs.py's summary: wins, median change, the
parent's quartile spread and the ok / regressed / unresolved verdict on
synthetic paired samples."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perf_pairs import summarize  # noqa: E402


def expect(cond, what, got):
    if not cond:
        sys.exit(f"FAIL: {what}: {got}")
    print(f"ok: {what}")


def main():
    flat = [100.0] * 10

    s = summarize(flat, flat, "lower", 0.05)
    expect(s["verdict"] == "ok" and s["wins"] == 0 and
           s["median_change"] == 0.0 and s["parent_spread"] == 0.0,
           "identical runs: ok, no wins (ties count for neither)", s)

    s = summarize(flat, [110.0] * 10, "lower", 0.05)
    expect(s["verdict"] == "regressed" and abs(s["median_change"] - 0.1) <
           1e-12, "10% slower beyond a 5% bound regresses", s)

    s = summarize(flat, [110.0] * 10, "higher", 0.05)
    expect(s["verdict"] == "ok" and s["wins"] == 10,
           "10% higher is a win when higher is better", s)

    s = summarize(flat, [104.0] * 10, "lower", 0.05)
    expect(s["verdict"] == "ok", "worse within the bound is ok", s)

    noisy = [80.0, 90.0, 100.0, 110.0, 120.0] * 2
    s = summarize(noisy, noisy[1:] + noisy[:1], "lower", 0.05)
    expect(s["verdict"] == "unresolved" and s["parent_spread"] > 0.05,
           "parent spread above the bound is unresolved", s)
    expect(s["wins"] == 2, "wins count only strictly better pairs", s)

    s = summarize(noisy, [70.0] * 10, "lower", 0.05)
    expect(s["verdict"] == "ok",
           "wide spread resolves when every change run beats every parent "
           "run", s)

    s = summarize([0.0] * 3, [0.0] * 3, "lower", 0.05)
    expect(s["verdict"] == "ok", "all-zero metric is ok", s)

    try:
        summarize(flat, flat[:3], "lower", 0.05)
        expect(False, "unequal sides raise", "no error")
    except ValueError:
        expect(True, "unequal sides raise", "")
    print("all perf_pairs self-tests passed")


if __name__ == "__main__":
    main()
