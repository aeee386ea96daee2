#pragma once
/// \file fastmoe.h
/// FastMoE-style baseline: primitive expert parallelism. The whole batch
/// is dispatched with one AllToAll, the expert runs, one AllToAll combines
/// — communication and computation strictly in sequence, no memory reuse,
/// CUDA-core GEMM throughput (the paper credits part of PipeMoE's win to
/// Tensor Cores). It is MPipeMoE's own PipelineScheduleBuilder at one
/// partition with both throughputs scaled down. Serial execution
/// (MoELayerOptions::pipeline = false) frees gradient scratch eagerly, so
/// the temp-buffer peak follows Eq 3 (BM + BH).

#include "core/moe_layer.h"

namespace mpipe::baselines {

/// CUDA-core vs Tensor-Core GEMM throughput of the FastMoE and FasterMoE
/// expert kernels.
inline constexpr double kCudaCoreComputeScale = 0.45;
/// FastMoE's AllToAll is grouped per-pair send/recv, not a fused
/// collective: it reaches only this share of the collective bandwidth.
inline constexpr double kGroupedAllToAllCommScale = 0.45;

/// `options` with what every baseline pins: pipelining off, one partition
/// holding the whole batch, no buffer reuse. A fixed num_partitions > 1 or
/// a pinned strategy throws a CheckError naming `baseline`, so a caller's
/// setting is never dropped silently.
core::MoELayerOptions unpipelined_options(core::MoELayerOptions options,
                                          const char* baseline);

/// A MoELayer running the pipeline schedule unpipelined at CUDA-core
/// compute and grouped-AllToAll bandwidth.
class FastMoELayer : public core::MoELayer {
 public:
  FastMoELayer(sim::Cluster& cluster, core::MoELayerOptions options);
};

}  // namespace mpipe::baselines
