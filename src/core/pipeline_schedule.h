#pragma once
/// \file pipeline_schedule.h
/// Builds the OpGraphs for MPipeMoE's micro-batch pipeline (paper Fig 4b,
/// Fig 7). Forward: per partition p, dispatch AllToAll S_p, expert GEMMs
/// C1_p/C2_p, combine AllToAll R_p, with S and R alternating on the comm
/// stream and offload copies (strategies S1–S3) on the mem stream.
/// Backward mirrors it and inserts the strategy's restore operations.
/// Ring-buffer reuse turns prior readers of a slot into dependencies of
/// the next writer (WAR edges), which the tests assert.
///
/// MoELayer is the one layer runtime; a ScheduleBuilder is what plugs a
/// schedule into it — MPipeMoE's pipeline, FastMoE (the same builder at
/// one partition and scaled-down throughput) or FasterMoE. The layer owns
/// parameters, allocators, gating, the dispatch plan, the step buffers
/// and the host staging, runs the graphs and fills the StepReport; the
/// builder only turns one step context (and the step's LayerRefs) into op
/// graphs, and holds no reference into the layer.
/// A builder states only the schedule — which ops, in what order, with
/// which dependency and WAR edges. Each op kind's cost, closure, hazard
/// declarations and functional-vs-timing form come from its one emitter
/// in core/schedule_ops.h.

#include "comm/process_group.h"
#include "core/execution_context.h"
#include "mem/host_staging.h"
#include "moe/expert.h"
#include "moe/gating.h"
#include "sim/op_graph.h"

namespace mpipe::core {

/// Borrowed views of the layer's parameters and host staging for one
/// step; all null in timing-only steps and probes.
struct LayerRefs {
  std::vector<moe::GatingNetwork>* gates = nullptr;             ///< [device]
  std::vector<std::vector<moe::ExpertFFN>>* experts = nullptr;  ///< [dev][k]
  mem::HostStaging* staging = nullptr;  ///< offload/prefetch slots
};

/// The schedule half of a MoE layer step: turns the step context (plan +
/// buffers, set up by MoELayer) into the forward and backward op graphs.
/// Builders are stateless across steps — the backward must be derivable
/// from the same context the forward saw.
class ScheduleBuilder {
 public:
  ScheduleBuilder() = default;
  virtual ~ScheduleBuilder() = default;
  ScheduleBuilder(const ScheduleBuilder&) = default;
  ScheduleBuilder& operator=(const ScheduleBuilder&) = default;
  ScheduleBuilder(ScheduleBuilder&&) = default;
  ScheduleBuilder& operator=(ScheduleBuilder&&) = default;

  virtual sim::OpGraph build_forward(MoeStepContext& ctx,
                                     const LayerRefs& refs) const = 0;
  virtual sim::OpGraph build_backward(MoeStepContext& ctx,
                                      const LayerRefs& refs) const = 0;

  /// Model-state bytes each device holds on top of the layer's parameters
  /// for the duration of the step (e.g. replicated expert parameters).
  /// MoELayer allocates them with the step's forward buffers.
  virtual std::uint64_t step_model_state_bytes(
      const MoeStepContext& /*ctx*/) const {
    return 0;
  }
};

class PipelineScheduleBuilder : public ScheduleBuilder {
 public:
  /// `compute_scale` multiplies the effective compute throughput: the
  /// PipeMoE/MPipeMoE kernels use Tensor Cores (scale 1.0); the FastMoE
  /// baseline runs the paper's CUDA-core kernels (< 1.0). `comm_scale`
  /// likewise multiplies collective bandwidth (< 1 models a grouped
  /// send/recv AllToAll instead of a fused one).
  explicit PipelineScheduleBuilder(const sim::Cluster& cluster,
                                   double compute_scale = 1.0,
                                   double comm_scale = 1.0);

  /// Emits gating + the n-partition S/C1/C2/R pipeline + gate scaling.
  sim::OpGraph build_forward(MoeStepContext& ctx,
                             const LayerRefs& refs) const override;

  /// Emits grad scaling + the reversed pipeline with restore ops + gating
  /// backward + the gating-gradient AllReduce.
  sim::OpGraph build_backward(MoeStepContext& ctx,
                              const LayerRefs& refs) const override;

 private:
  comm::ProcessGroup world_;
  double compute_scale_;
  double comm_scale_;
};

}  // namespace mpipe::core
