#pragma once
/// Shared helpers for the figure-reproduction benches: system factories
/// matching the paper's testbed and per-system step timers.

#include <algorithm>
#include <cstdio>
#include <string>

#include "baselines/fastermoe.h"
#include "baselines/fastmoe.h"
#include "common/csv_writer.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/moe_layer.h"
#include "core/theory.h"
#include "runtime/model_zoo.h"

namespace mpipe::bench {

/// The paper's testbed: 8 DGX A100 nodes, 64 GPUs.
inline sim::Cluster paper_pod() { return sim::Cluster::dgx_a100_pod(8, 8); }

/// Pod with the given total GPU count (8 GPUs per node).
inline sim::Cluster pod_of(int gpus) {
  return sim::Cluster::dgx_a100_pod(std::max(1, gpus / 8),
                                    std::min(8, gpus));
}

inline core::MoELayerOptions pipemoe_options(const runtime::ModelSpec& spec,
                                             int n_partitions,
                                             bool memory_reuse) {
  core::MoELayerOptions o = runtime::layer_options(spec);
  o.num_partitions = n_partitions;  // 0 = adaptive
  o.memory_reuse = memory_reuse;
  o.mode = core::ExecutionMode::kTimingOnly;
  return o;
}

/// One simulated training step of PipeMoE/MPipeMoE.
inline core::StepReport pipemoe_step(sim::Cluster& cluster,
                                     const runtime::ModelSpec& spec,
                                     std::int64_t tokens, int n_partitions,
                                     bool memory_reuse, double skew = 0.0) {
  core::MoELayer layer(cluster, pipemoe_options(spec, n_partitions,
                                                memory_reuse));
  return layer.step_timing(tokens, skew);
}

inline core::StepReport fastmoe_step(sim::Cluster& cluster,
                                     const runtime::ModelSpec& spec,
                                     std::int64_t tokens,
                                     double skew = 0.0) {
  baselines::FastMoEOptions o;
  o.d_model = spec.d_model;
  o.d_hidden = spec.d_hidden;
  o.num_experts = spec.num_experts;
  o.mode = core::ExecutionMode::kTimingOnly;
  baselines::FastMoELayer layer(cluster, o);
  return layer.step_timing(tokens, skew);
}

inline core::StepReport fastermoe_step(sim::Cluster& cluster,
                                       const runtime::ModelSpec& spec,
                                       std::int64_t tokens,
                                       double skew = 0.0) {
  baselines::FasterMoEOptions o;
  o.d_model = spec.d_model;
  o.d_hidden = spec.d_hidden;
  o.num_experts = spec.num_experts;
  o.mode = core::ExecutionMode::kTimingOnly;
  baselines::FasterMoELayer layer(cluster, o);
  return layer.step_timing(tokens, skew);
}

inline std::string fmt(double v, int precision = 2) {
  return TablePrinter::fmt(v, precision);
}

}  // namespace mpipe::bench
