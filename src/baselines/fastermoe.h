#pragma once
/// \file fastermoe.h
/// FasterMoE-style baseline (paper §III-B, Fig 5a): the batch tensor is
/// split along the *device* dimension, so each pipeline step gathers one
/// destination's tokens with point-to-point transfers, computes that
/// expert, and scatters results back — granularity fixed at the device
/// count. Every fragment pays its own launch latency and the destination's
/// comm stream serialises arrivals; under heterogeneous bandwidth the
/// per-step synchronisation waits for the slowest link. Includes dynamic
/// expert shadowing (timing mode), which trades replicated expert memory
/// for reduced traffic on hot experts.
///
/// The schedule is a core::ScheduleBuilder; FasterMoELayer runs it on
/// core::MoELayer with FastMoE's pinned options (one partition, Eq-3
/// eager-free temp accounting, no buffer reuse), so parameters, buffers,
/// checks and step drivers are the shared runtime's. The builder states
/// the split-by-N order, the P2P fragments and the shadowing ops; the
/// router, gate scaling, expert stages and gate-gradient sync come from
/// the shared emitters in core/schedule_ops.h, the same ones the pipeline
/// builder uses.

#include "baselines/fastmoe.h"
#include "baselines/shadowing.h"
#include "comm/process_group.h"
#include "core/moe_layer.h"

namespace mpipe::baselines {

/// FasterMoE's split-by-N schedule over a one-partition step context: per
/// destination device, P2P gathers, the expert computation and P2P
/// scatters, with all gathers enqueued first. Timing-only steps shadow hot
/// destinations (parameter broadcast before, gradient AllReduce after);
/// functional steps run without shadowing.
class FasterMoEScheduleBuilder : public core::ScheduleBuilder {
 public:
  FasterMoEScheduleBuilder(const sim::Cluster& cluster, double compute_scale,
                           ShadowingConfig shadowing);

  sim::OpGraph build_forward(core::MoeStepContext& ctx,
                             const core::LayerRefs& refs) const override;
  sim::OpGraph build_backward(core::MoeStepContext& ctx,
                              const core::LayerRefs& refs) const override;
  /// The shadowed experts' replicated parameters + gradients.
  std::uint64_t step_model_state_bytes(
      const core::MoeStepContext& ctx) const override;

 private:
  ShadowingDecision shadowing_for(const core::MoeStepContext& ctx) const;
  /// Rows device d computes given the shadowing decision.
  static std::int64_t compute_rows(const core::MoeStepContext& ctx,
                                   int device,
                                   const ShadowingDecision& shadow);

  comm::ProcessGroup world_;
  double compute_scale_;
  ShadowingConfig shadowing_;
};

/// A MoELayer running the FasterMoE schedule at CUDA-core compute:
/// the constructor only pins the options (unpipelined_options) and passes
/// the builder. Shadowing applies to timing-only steps; functional steps
/// validate the P2P pipeline numerics without it. The P2P fragments move
/// fp32 rows, so a compute_dtype other than kF32 is rejected.
class FasterMoELayer : public core::MoELayer {
 public:
  FasterMoELayer(sim::Cluster& cluster, core::MoELayerOptions options,
                 ShadowingConfig shadowing = {});
};

}  // namespace mpipe::baselines
