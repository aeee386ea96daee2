#pragma once
/// \file probes.h
/// Modeled and kernel-level probes the traced runs report beside the
/// measured layer times: the strategy/granularity selector's regret on the
/// timing model, and the expert GEMM rate at a workload's panel shape.

#include <cstdint>
#include <string>

#include "core/moe_layer.h"

namespace perfbench {

/// What the layer's own selectors pick at `tokens_per_device` (balanced
/// routing, timing-only step_timing) against the best (strategy, n) over
/// S1-S4 and, when the layer searches n, its candidate partition counts.
struct SelectorProbe {
  using ReuseStrategy = mpipe::core::ReuseStrategy;
  int chosen_n = 1;
  ReuseStrategy chosen_strategy = ReuseStrategy::kNone;
  double chosen_seconds = 0.0;
  int best_n = 1;
  ReuseStrategy best_strategy = ReuseStrategy::kNone;
  double best_seconds = 0.0;

  /// Chosen modeled step over the best modeled step (>= 1).
  double regret() const { return chosen_seconds / best_seconds; }
  std::string summary() const;
};

SelectorProbe probe_selector(const mpipe::core::MoELayerOptions& options,
                             std::int64_t tokens_per_device);

/// Expert FFN GEMM throughput (FFN1 bias+ReLU and FFN2 bias, as the expert
/// runs them) at a `rows`-row panel, fp32 weights and `dtype` weights.
struct GemmProbe {
  double f32_gflops = 0.0;
  double dtype_gflops = 0.0;
};

GemmProbe probe_gemm(std::int64_t rows, std::int64_t d_model,
                     std::int64_t d_hidden, mpipe::DType dtype,
                     std::uint64_t seed);

}  // namespace perfbench
