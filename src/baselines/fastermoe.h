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
/// core::MoELayer with pipelining off (one partition, Eq-3 eager-free
/// temp accounting) and no buffer reuse, so parameters, buffers, checks and
/// step drivers are the shared runtime's. The builder states the
/// split-by-N order, the P2P fragments and the shadowing ops; the router,
/// gate scaling, expert stages and gate-gradient sync come from the shared
/// emitters in core/schedule_ops.h, the same ones the pipeline builder
/// uses.

#include "baselines/shadowing.h"
#include "comm/process_group.h"
#include "core/moe_layer.h"

namespace mpipe::baselines {

struct FasterMoEOptions {
  std::int64_t d_model = 1024;
  std::int64_t d_hidden = 4096;
  int num_experts = 64;
  moe::ActivationKind activation = moe::ActivationKind::kReLU;
  /// CUDA-core vs Tensor-Core throughput ratio.
  double compute_scale = 0.45;
  /// Shadowing applies to timing-mode steps; functional steps validate the
  /// P2P pipeline numerics without it.
  ShadowingConfig shadowing{};
  /// Run functional steps on the concurrent graph executor (see
  /// core::MoELayerOptions::parallel_execution).
  bool parallel_execution = false;
  core::ExecutionMode mode = core::ExecutionMode::kFull;
  std::uint64_t seed = 42;
};

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

/// A MoELayer running the FasterMoE schedule: the constructor only maps
/// the options and fixes the schedule.
class FasterMoELayer : public core::MoELayer {
 public:
  FasterMoELayer(sim::Cluster& cluster, FasterMoEOptions options);
};

}  // namespace mpipe::baselines
