#include "probes.h"

#include <cstdio>
#include <vector>

#include "bench.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/random_init.h"

namespace perfbench {

using namespace mpipe;

std::string SelectorProbe::summary() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "chosen n=%d %s %.4f ms, best n=%d %s %.4f ms, regret %.4f",
                chosen_n, core::to_string(chosen_strategy).c_str(),
                chosen_seconds * 1e3, best_n,
                core::to_string(best_strategy).c_str(), best_seconds * 1e3,
                regret());
  return buf;
}

SelectorProbe probe_selector(const core::MoELayerOptions& options,
                             std::int64_t tokens_per_device) {
  core::MoELayerOptions timing = options;
  timing.mode = core::ExecutionMode::kTimingOnly;
  timing.profile_execution = false;
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);

  SelectorProbe probe;
  {
    core::MoELayer layer(cluster, timing);
    const core::StepReport r = layer.step_timing(tokens_per_device);
    probe.chosen_n = r.n_partitions;
    probe.chosen_strategy = r.strategy;
    probe.chosen_seconds = r.step_seconds();
  }
  const std::vector<int> ns = options.num_partitions > 0
                                  ? std::vector<int>{options.num_partitions}
                                  : options.candidate_partitions;
  probe.best_seconds = probe.chosen_seconds;
  probe.best_n = probe.chosen_n;
  probe.best_strategy = probe.chosen_strategy;
  for (int n : ns) {
    for (core::ReuseStrategy s :
         {core::ReuseStrategy::kS1, core::ReuseStrategy::kS2,
          core::ReuseStrategy::kS3, core::ReuseStrategy::kS4}) {
      core::MoELayerOptions fixed = timing;
      fixed.num_partitions = n;
      fixed.strategy = s;
      core::MoELayer layer(cluster, fixed);
      const core::StepReport r = layer.step_timing(tokens_per_device);
      if (r.step_seconds() < probe.best_seconds) {
        probe.best_seconds = r.step_seconds();
        probe.best_n = r.n_partitions;
        probe.best_strategy = r.strategy;
      }
    }
  }
  return probe;
}

namespace {

/// GFLOP/s of `body` (which performs `flops` per call): the median over
/// chunks of repeated calls, each chunk long enough to dwarf the clock.
template <typename Body>
double gflops(std::uint64_t flops, Body&& body) {
  body();  // packs buffers and faults pages in before timing
  int calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) body();
    if (seconds_since(t0) >= 2e-3 || calls >= (1 << 20)) break;
    calls *= 2;
  }
  std::vector<double> rates;
  for (int chunk = 0; chunk < 15; ++chunk) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) body();
    rates.push_back(static_cast<double>(flops) * calls / seconds_since(t0) /
                    1e9);
  }
  return median(rates);
}

QuantView view_of(const QuantizedMatrix& q) {
  return {q.dtype,
          q.dtype == DType::kBF16 ? static_cast<const void*>(q.bf16.data())
                                  : static_cast<const void*>(q.i8.data()),
          q.scales.empty() ? nullptr : q.scales.data(), q.rows, q.cols};
}

}  // namespace

GemmProbe probe_gemm(std::int64_t rows, std::int64_t d_model,
                     std::int64_t d_hidden, DType dtype, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{rows, d_model});
  Tensor w1(Shape{d_model, d_hidden});
  Tensor b1(Shape{d_hidden});
  Tensor w2(Shape{d_hidden, d_model});
  Tensor b2(Shape{d_model});
  init_normal(x, rng, 1.0f);
  init_kaiming(w1, rng, d_model);
  init_kaiming(w2, rng, d_hidden);
  init_normal(b1, rng);
  init_normal(b2, rng);
  Tensor mid(Shape{rows, d_hidden});
  Tensor out(Shape{rows, d_model});
  const std::uint64_t flops =
      gemm_flops(rows, d_hidden, d_model) + gemm_flops(rows, d_model, d_hidden);

  GemmProbe probe;
  probe.f32_gflops = gflops(flops, [&] {
    gemm_bias_act(x, w1, b1, GemmEpilogue::kBiasReLU, mid);
    gemm_bias_act(mid, w2, b2, GemmEpilogue::kBias, out);
  });
  if (dtype == DType::kF32) {
    probe.dtype_gflops = probe.f32_gflops;
    return probe;
  }
  const QuantizedMatrix q1 = quantize_matrix(w1, dtype);
  const QuantizedMatrix q2 = quantize_matrix(w2, dtype);
  const QuantView v1 = view_of(q1);
  const QuantView v2 = view_of(q2);
  probe.dtype_gflops = gflops(flops, [&] {
    gemm_bias_act_q(x, v1, b1, GemmEpilogue::kBiasReLU, mid);
    gemm_bias_act_q(mid, v2, b2, GemmEpilogue::kBias, out);
  });
  return probe;
}

}  // namespace perfbench
