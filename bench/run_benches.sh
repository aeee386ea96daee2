#!/usr/bin/env bash
# Runs the micro benches and emits machine-readable results so future PRs
# have a perf trajectory to compare against.
#
# Usage: bench/run_benches.sh [--check|--rows] [--advisory] [build_dir]
#                             [baseline_dir]
#   (no flag)     write the trajectory: BENCH_{gemm,alltoall,datamove,step,
#                 serve}.json into baseline_dir.
#   --check       do not overwrite the trajectory: run a sweep into a
#                 scratch dir and diff against the committed BENCH_*.json in
#                 baseline_dir. Fails when any benchmark drops >15% below
#                 the pack's median ratio, or the median itself drops below
#                 0.8 (see check_bench_regression.py for the exact
#                 contract); one automatic retry absorbs scheduler noise.
#                 Exits 77 (CTest SKIP) if python3 or a baseline is missing.
#   --rows        run nothing: compare each bench binary's row names
#                 (--benchmark_list_tests) against the rows of its committed
#                 BENCH_*.json and fail on any difference — a row added or
#                 deleted without regenerating the trajectory. Takes seconds.
#   --advisory    with --check: still run the full diff and print every
#                 regression, but exit 0 regardless. For noisy shared
#                 runners (CI perf-sanity job) where a hard gate would
#                 flake; the local CTest gate stays strict.
#   build_dir     CMake build tree holding bench/ binaries (default: build)
#   baseline_dir  where BENCH_*.json live; in normal mode results are
#                 written here (default: repo root)
#
# Writing and checking use one measurement protocol (PROTOCOL below), so
# both sides of the diff are the same statistic: the sweep runs ROUNDS
# rounds over the five suites; in each round every row runs REPS
# repetitions of >= MIN_TIME s, interleaved in random order within its
# suite. So the shared host's slow phases spread over every row and every
# suite instead of landing on a few (a short suite fits in one phase: the
# alltoall suite once ran 1.6x faster than the sweeps around it).
# merge_bench_json.py joins a suite's rounds into its BENCH_<kind>.json,
# and the checker averages each row's repetitions. The gate compares
# items_per_second, items per CPU second, and no row uses the wall clock:
# the GEMM, data-move and serving suites pin the pool to one worker and
# their single-kernel rows use the main thread's CPU time; the *Pool rows
# (largest GEMMs and Adam on the machine-sized pool), the
# training-step rows and the serving rows use process CPU time (all
# threads); the alltoall replay runs on the main thread. The bench sources
# say which clock each row uses and why.

set -euo pipefail

CHECK=0
ROWS=0
ADVISORY=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --check) CHECK=1 ;;
    --rows) ROWS=1 ;;
    --advisory) ADVISORY=1 ;;
    *)
      echo "error: unknown flag $1" >&2
      exit 2
      ;;
  esac
  shift
done

if [[ "${ADVISORY}" == "1" && "${CHECK}" == "0" ]]; then
  echo "error: --advisory only makes sense with --check (normal mode would" >&2
  echo "       overwrite the committed BENCH_*.json trajectory)" >&2
  exit 2
fi

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The single protocol for writing and checking the trajectory: ROUNDS x
# REPS repetitions per row. Many short repetitions beat few long ones here:
# the host's slow phases outlast a repetition, so what averages them out is
# the number of repetitions. A row whose one iteration outlasts MIN_TIME
# (the scalar GEMM baselines) runs one iteration per repetition.
MIN_TIME=0.02
ROUNDS=4
REPS=5
PROTOCOL=(--benchmark_min_time="${MIN_TIME}"
          --benchmark_repetitions="${REPS}"
          --benchmark_enable_random_interleaving=true
          --benchmark_display_aggregates_only=true)

# Name every missing binary (not just the first): a partial build otherwise
# produces a hard-to-debug one-liner in CI logs.
BENCHES=(bench_micro_gemm bench_micro_alltoall bench_micro_datamove
         bench_micro_step bench_serve)
MISSING=0
for bin in "${BENCHES[@]}"; do
  if [[ ! -x "${BUILD_DIR}/bench/${bin}" ]]; then
    echo "error: bench binary missing: ${BUILD_DIR}/bench/${bin}" >&2
    MISSING=1
  fi
done
if [[ "${MISSING}" == "1" ]]; then
  echo "Build the bench targets first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

kind_of() {  # BENCH_<kind>.json: strip bench_micro_, then bench_ (serve)
  local kind="${1#bench_micro_}"
  echo "${kind#bench_}"
}

if [[ "${ROWS}" == "1" ]]; then
  LISTED="$(mktemp)"
  trap 'rm -f "${LISTED}"' EXIT
  status=0
  for name in "${BENCHES[@]}"; do
    "${BUILD_DIR}/bench/${name}" --benchmark_list_tests=true > "${LISTED}"
    python3 "${SCRIPT_DIR}/check_bench_regression.py" \
      --baseline "${OUT_DIR}/BENCH_$(kind_of "${name}").json" \
      --rows "${LISTED}" || status=1
  done
  exit "${status}"
fi

run_all() {  # run_all <dest_dir>: every round over every suite, then merge
  local dest="$1" round name kind
  for round in $(seq "${ROUNDS}"); do
    for name in "${BENCHES[@]}"; do
      echo "== ${name}, round ${round}/${ROUNDS} (items_per_second ==" \
           "FLOP/s, bytes/s or tokens/s) =="
      "${BUILD_DIR}/bench/${name}" \
        --benchmark_out="${dest}/BENCH_$(kind_of "${name}").${round}.json" \
        --benchmark_out_format=json "${PROTOCOL[@]}"
    done
  done
  for name in "${BENCHES[@]}"; do
    kind="$(kind_of "${name}")"
    python3 "${SCRIPT_DIR}/merge_bench_json.py" "${dest}/BENCH_${kind}.json" \
      "${dest}/BENCH_${kind}".*.json
    rm -f "${dest}/BENCH_${kind}".*.json
  done
}

if [[ "${CHECK}" == "0" ]]; then
  if ! command -v python3 >/dev/null 2>&1; then
    echo "error: python3 is needed to merge the measurement rounds" >&2
    exit 1
  fi
  mkdir -p "${OUT_DIR}"
  run_all "${OUT_DIR}"
  echo "Wrote ${OUT_DIR}/BENCH_{gemm,alltoall,datamove,step,serve}.json"
  exit 0
fi

# ---- --check mode ----------------------------------------------------------

if ! command -v python3 >/dev/null 2>&1; then
  echo "skip: python3 not available for the regression diff" >&2
  exit 77
fi
for f in BENCH_gemm.json BENCH_alltoall.json BENCH_datamove.json \
         BENCH_step.json BENCH_serve.json; do
  if [[ ! -f "${OUT_DIR}/${f}" ]]; then
    echo "skip: no committed baseline ${OUT_DIR}/${f}" >&2
    exit 77
  fi
done

SCRATCH="${BUILD_DIR}/bench_check"
check_once() {
  rm -rf "${SCRATCH}"
  mkdir -p "${SCRATCH}"
  run_all "${SCRATCH}"
  local status=0
  for kind in gemm alltoall datamove step serve; do
    python3 "${SCRIPT_DIR}/check_bench_regression.py" \
      --baseline "${OUT_DIR}/BENCH_${kind}.json" \
      --candidate "${SCRATCH}/BENCH_${kind}.json" \
      --threshold 0.15 || status=1
  done
  return "${status}"
}

if check_once; then
  exit 0
fi
echo "== regression reported; retrying once to rule out scheduler noise =="
if check_once; then
  exit 0
fi
if [[ "${ADVISORY}" == "1" ]]; then
  echo "== advisory mode: regressions reported above, NOT failing the run =="
  echo "   (shared-runner noise; treat as a pointer, reproduce locally)"
  exit 0
fi
exit 1
