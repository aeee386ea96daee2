#pragma once
/// \file fastmoe.h
/// FastMoE-style baseline: primitive expert parallelism. The whole batch
/// is dispatched with one AllToAll, the expert runs, one AllToAll combines
/// — communication and computation strictly in sequence, no memory reuse,
/// CUDA-core GEMM throughput (the paper credits part of PipeMoE's win to
/// Tensor Cores). Serial execution (MoELayerOptions::pipeline = false)
/// frees gradient scratch eagerly, so the temp-buffer peak follows Eq 3
/// (BM + BH).

#include "core/moe_layer.h"

namespace mpipe::baselines {

struct FastMoEOptions {
  std::int64_t d_model = 1024;
  std::int64_t d_hidden = 4096;
  int num_experts = 64;
  moe::ActivationKind activation = moe::ActivationKind::kReLU;
  /// CUDA-core vs Tensor-Core throughput ratio.
  double compute_scale = 0.45;
  /// FastMoE's AllToAll is grouped per-pair send/recv, not a fused
  /// collective — it reaches only the P2P share of the fabric.
  double comm_scale = 0.45;
  /// Run functional steps on the concurrent graph executor (see
  /// core::MoELayerOptions::parallel_execution).
  bool parallel_execution = false;
  core::ExecutionMode mode = core::ExecutionMode::kFull;
  std::uint64_t seed = 42;
};

/// A MoELayer with pipelining and reuse disabled: the constructor only
/// maps the options.
class FastMoELayer : public core::MoELayer {
 public:
  FastMoELayer(sim::Cluster& cluster, FastMoEOptions options);
};

}  // namespace mpipe::baselines
