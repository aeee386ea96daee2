#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first run configures and builds perfbench/ (the library sources in
src/ plus the program in perfbench/src/) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to stderr. The benchmark's stdout is relayed unchanged;
its last line is the JSON result. Exits non-zero without a result when
the sources are missing, the build fails, the run times out, or the
printed metrics differ from the ones BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_pipelined", "train_dynamic_bf16", "serve_bursty")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        preexec_fn=os.setsid,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"timed out after {timeout} s: {' '.join(cmd)}", 3)
    return proc.returncode, out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "moe_layer.h")):
        die("library sources not found: run from a checkout holding src/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            die("cmake configure failed")
    code, _ = run(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)
    if code != 0:
        die("build failed")
    return os.path.join(build_dir, "mpipe_perfbench")


def source_revision():
    """git commit when run from a git work tree, plus a digest of the
    sources the benchmark builds (a checkout need not be a repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return f"{commit}+src.{digest.hexdigest()[:12]}"


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in (0, 600]")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(ROOT, build_root, "perfbench"))
    code, out = run([binary, "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                     "--trace", str(args.trace),
                     "--commit", source_revision()],
                    RUN_TIMEOUT_S, capture=True)
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        sys.stdout.write(out)
        die(f"benchmark printed no result (exit {code})", code or 3)
    expected = declared_metrics(bool(args.trace))
    if expected is not None and printed != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(f"printed metrics {sorted(printed.items())} differ from "
            f"BENCHMARK.json {sorted(expected.items())}", 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
