/// google-benchmark microbench: the data-movement hot paths — a dispatch
/// payload in the bf16 wire format and the Adam step. items_per_second is
/// wire bytes and parameter elements per CPU second, which the perf gate
/// compares. The serial scalar Adam loop the step replaced is timed in the
/// ungated bench_scalar_reference binary.
///
/// main() pins the shared pool to one worker, the end-to-end benchmark's
/// setting: parallel_for runs inline and the rows keep the default clock,
/// the main thread's CPU time. BM_AdamStepPool runs the same step on the
/// machine-sized pool, its workers pinned one per CPU, with
/// MeasureProcessCPUTime() (all threads), where the 4M-element step fans
/// out.

#include <benchmark/benchmark.h>

#include <map>
#include <utility>
#include <vector>

#include "comm/all_to_all.h"
#include "common/rng.h"
#include "micro_pool.h"
#include "runtime/adam.h"
#include "tensor/quant.h"
#include "tensor/random_init.h"

namespace {

using namespace mpipe;

/// A (rows, cols) source and the packed receive buffer of a dispatch
/// payload: 16 ragged row blocks (3:1 largest:smallest, gaps between,
/// about half the source rows), built once per shape and process so a
/// repetition times only the copies and the rounding.
struct SegmentPayload {
  Tensor src, dst;
  std::vector<comm::RowSegment> segments;
};

const SegmentPayload& segment_payload(std::int64_t rows, std::int64_t cols) {
  static std::map<std::pair<std::int64_t, std::int64_t>, SegmentPayload>
      payloads;
  auto [it, fresh] = payloads.try_emplace({rows, cols});
  SegmentPayload& p = it->second;
  if (!fresh) return p;
  Rng rng(11);
  p.src = Tensor(Shape{rows, cols});
  init_normal(p.src, rng);
  constexpr int kPieces = 16;
  const std::int64_t budget = rows / 2;
  std::int64_t covered = 0;
  for (int i = 0; i < kPieces; ++i) {
    const std::int64_t count =
        budget / kPieces + (i % 3 == 0 ? budget / (2 * kPieces) : 0);
    if (covered * 2 + count > rows) break;  // gaps between the blocks
    p.segments.push_back({0, &p.src, covered * 2, 1, nullptr, covered, count});
    covered += count;
  }
  p.dst = Tensor(Shape{covered, cols});
  for (comm::RowSegment& seg : p.segments) seg.dst = &p.dst;
  return p;
}

void BM_ApplySegmentsBf16(benchmark::State& state) {
  // comm::apply_segments in the bf16 wire format: the payload's blocks
  // copied into the receive buffer and rounded through bf16 — what one
  // dispatch AllToAll's payload costs when compute_dtype is kBF16.
  // items_per_second counts the wire bytes. Only the 512x256 shape
  // (256 KiB, cache-resident) is gated: an 8192x1024 payload (48 MiB)
  // read 1.4-3.3 GB/s between sweeps of one build on the shared 4-vCPU
  // host, more than the gate's 15% bound.
  const SegmentPayload& p = segment_payload(state.range(0), state.range(1));
  std::uint64_t moved = 0;
  for (auto _ : state) {
    comm::apply_segments(p.segments, DType::kBF16);
    benchmark::DoNotOptimize(p.dst.data());
    benchmark::ClobberMemory();
    moved += quantized_bytes(p.dst.dim(0), p.dst.dim(1), DType::kBF16);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moved));
}
BENCHMARK(BM_ApplySegmentsBf16)->Args({512, 256});

void BM_AdamStep(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(13);
  Tensor w(Shape{n}), g(Shape{n});
  init_normal(w, rng);
  init_normal(g, rng);
  runtime::AdamOptions opt;
  opt.weight_decay = 0.01f;
  runtime::Adam adam({&w}, {&g}, opt);
  for (auto _ : state) {
    adam.step();
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_AdamStep)->Arg(1 << 16)->Arg(1 << 22);

// ---- the same paths on the machine-sized pool ---------------------------

void BM_AdamStepPool(benchmark::State& state) {
  const bench::MachineSizedPool pool(state);
  BM_AdamStep(state);
}
BENCHMARK(BM_AdamStepPool)->Arg(1 << 22)->MeasureProcessCPUTime();

}  // namespace

int main(int argc, char** argv) {
  return mpipe::bench::run_on_one_worker(argc, argv);
}
