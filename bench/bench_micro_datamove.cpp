/// google-benchmark microbench: the data-movement hot paths — span
/// gather/scatter (token packing around the expert GEMMs) and the Adam
/// step. Scalar/memcpy baselines stay in the suite so the SIMD and pool
/// paths have an honest in-tree reference; items_per_second is bytes and
/// parameter elements per CPU second, which the perf gate compares.
///
/// main() pins the shared pool to one worker, the end-to-end benchmark's
/// setting: parallel_for runs inline and the rows keep the default clock,
/// the main thread's CPU time. The *Pool rows run the same code on the
/// machine-sized pool with MeasureProcessCPUTime() (all threads): the
/// 8192-row copies and the 4M-element Adam step fan out there, while the
/// 512-row copies (256 KiB moved) stay below moe::kParallelCopyElems and
/// serial, so a threshold set below 256 KiB shows as their CPU cost per
/// byte rising (~1.7x on a 4-vCPU host at 128 KiB). The crossover sweep
/// is in src/tensor/README.md; SimdEquivalenceFuzz checks the bytes.
///
/// The gather rows copy into one packed tensor reused across iterations
/// (gather_spans' out-parameter form), so they measure the copy. A fresh
/// 16 MiB tensor per call made one row's repetitions range 1.7-6.6 GB/s per
/// CPU second within a sweep, by whether glibc's dynamic mmap threshold
/// handed out fresh pages that fault on first touch.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "moe/expert.h"
#include "micro_pool.h"
#include "runtime/adam.h"
#include "tensor/quant.h"
#include "tensor/random_init.h"

namespace {

using namespace mpipe;

/// Ragged span list over a (rows, cols) buffer: `pieces` spans with a
/// 3:1 largest:smallest skew, covering half the buffer's rows.
moe::RowSpanList make_spans(std::int64_t rows, int pieces) {
  moe::RowSpanList spans;
  std::int64_t covered = 0;
  const std::int64_t budget = rows / 2;
  for (int i = 0; i < pieces; ++i) {
    const std::int64_t count =
        budget / pieces + (i % 3 == 0 ? budget / (2 * pieces) : 0);
    const std::int64_t offset = covered * 2;  // gaps between spans
    if (offset + count > rows) break;
    spans.push_back({offset, count});
    covered += count;
  }
  return spans;
}

void BM_GatherSpans(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const std::int64_t cols = state.range(1);
  Rng rng(11);
  Tensor buf(Shape{rows, cols});
  init_normal(buf, rng);
  const moe::RowSpanList spans = make_spans(rows, 16);
  Tensor packed(Shape{moe::span_rows(spans), cols});
  std::uint64_t moved = 0;
  for (auto _ : state) {
    moe::gather_spans(buf, spans, packed);
    benchmark::DoNotOptimize(packed.data());
    moved += static_cast<std::uint64_t>(packed.nbytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moved));
}
BENCHMARK(BM_GatherSpans)->Args({512, 256})->Args({2048, 16})->Args({8192, 1024});

void BM_GatherSpansMemcpy(benchmark::State& state) {
  // The pre-vectorization implementation: one serial memcpy per span.
  const std::int64_t rows = state.range(0);
  const std::int64_t cols = state.range(1);
  Rng rng(11);
  Tensor buf(Shape{rows, cols});
  init_normal(buf, rng);
  const moe::RowSpanList spans = make_spans(rows, 16);
  Tensor packed(Shape{moe::span_rows(spans), cols});
  std::uint64_t moved = 0;
  for (auto _ : state) {
    float* dst = packed.data();
    for (const moe::RowSpan& s : spans) {
      std::memcpy(dst, buf.data() + s.offset * cols,
                  static_cast<std::size_t>(s.count * cols) * sizeof(float));
      dst += s.count * cols;
    }
    benchmark::DoNotOptimize(packed.data());
    moved += static_cast<std::uint64_t>(packed.nbytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moved));
}
BENCHMARK(BM_GatherSpansMemcpy)->Args({512, 256})->Args({2048, 16})->Args({8192, 1024});

void BM_GatherSpansBf16(benchmark::State& state) {
  // Payload packing in the bf16 wire format: gather the spans, then round
  // the packed rows through bf16 — what a dispatch alltoall's payload
  // staging costs when compute_dtype is kBF16. items_per_second counts the
  // *wire* bytes (half the fp32 gather's), so the rate is directly
  // comparable against BM_GatherSpans on the payload-reduction axis.
  const std::int64_t rows = state.range(0);
  const std::int64_t cols = state.range(1);
  Rng rng(11);
  Tensor buf(Shape{rows, cols});
  init_normal(buf, rng);
  const moe::RowSpanList spans = make_spans(rows, 16);
  Tensor packed(Shape{moe::span_rows(spans), cols});
  std::uint64_t moved = 0;
  for (auto _ : state) {
    moe::gather_spans(buf, spans, packed);
    round_through_bf16(packed.data(), packed.numel());
    benchmark::DoNotOptimize(packed.data());
    moved += quantized_bytes(moe::span_rows(spans), cols, DType::kBF16);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moved));
}
BENCHMARK(BM_GatherSpansBf16)->Args({512, 256})->Args({8192, 1024});

void BM_ScatterSpans(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const std::int64_t cols = state.range(1);
  Rng rng(12);
  Tensor buf(Shape{rows, cols});
  const moe::RowSpanList spans = make_spans(rows, 16);
  Tensor packed(Shape{moe::span_rows(spans), cols});
  init_normal(packed, rng);
  std::uint64_t moved = 0;
  for (auto _ : state) {
    moe::scatter_spans(packed, buf, spans);
    benchmark::DoNotOptimize(buf.data());
    moved += static_cast<std::uint64_t>(packed.nbytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moved));
}
BENCHMARK(BM_ScatterSpans)->Args({512, 256})->Args({8192, 1024});

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

void BM_GatherSpansPool(benchmark::State& state) {
  const bench::MachineSizedPool pool;
  BM_GatherSpans(state);
}
BENCHMARK(BM_GatherSpansPool)
    ->Args({512, 256})
    ->Args({8192, 1024})
    ->MeasureProcessCPUTime();

void BM_ScatterSpansPool(benchmark::State& state) {
  const bench::MachineSizedPool pool;
  BM_ScatterSpans(state);
}
BENCHMARK(BM_ScatterSpansPool)
    ->Args({512, 256})
    ->Args({8192, 1024})
    ->MeasureProcessCPUTime();

void BM_AdamStepPool(benchmark::State& state) {
  const bench::MachineSizedPool pool;
  BM_AdamStep(state);
}
BENCHMARK(BM_AdamStepPool)->Arg(1 << 22)->MeasureProcessCPUTime();

void BM_AdamStepScalar(benchmark::State& state) {
  // The pre-vectorization implementation: serial scalar element loop.
  const std::int64_t n = state.range(0);
  Rng rng(13);
  Tensor w(Shape{n}), g(Shape{n});
  init_normal(w, rng);
  init_normal(g, rng);
  std::vector<float> m(static_cast<std::size_t>(n), 0.0f);
  std::vector<float> v(static_cast<std::size_t>(n), 0.0f);
  const float lr = 1e-3f, b1 = 0.9f, b2 = 0.999f, eps = 1e-8f, wd = 0.01f;
  std::int64_t t = 0;
  float* p = w.data();
  const float* gd = g.data();
  for (auto _ : state) {
    ++t;
    const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
    for (std::int64_t k = 0; k < n; ++k) {
      const float grad = gd[k] + wd * p[k];
      m[static_cast<std::size_t>(k)] =
          b1 * m[static_cast<std::size_t>(k)] + (1.0f - b1) * grad;
      v[static_cast<std::size_t>(k)] =
          b2 * v[static_cast<std::size_t>(k)] + (1.0f - b2) * grad * grad;
      const float m_hat = m[static_cast<std::size_t>(k)] / bc1;
      const float v_hat = v[static_cast<std::size_t>(k)] / bc2;
      p[k] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_AdamStepScalar)->Arg(1 << 16)->Arg(1 << 22);

}  // namespace

int main(int argc, char** argv) {
  return mpipe::bench::run_on_one_worker(argc, argv);
}
