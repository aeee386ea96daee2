#pragma once
/// \file schedule_ops.h
/// The op kinds every MoE schedule is built from, one emitter per kind:
/// the router GEMM and its backward, the gate-gradient AllReduce, the gate
/// scaling of the combine and its backward, the expert GEMM stages, and
/// the offload/prefetch round trip of the memory-reusing restores (§III-D,
/// S1–S3). An emitter owns its op's cost, its closure, its declared
/// reads/writes and the choice between the functional form (closure plus
/// declarations) and the timing-only one, so a ScheduleBuilder states only
/// the schedule: which ops, in what order, with which dependency and WAR
/// edges.
///
/// Declared accesses are the concurrent executor's hazard contract
/// (sim/graph_executor.h): every functional op states the byte ranges it
/// touches. Ring-slot buffers alias across partitions by construction
/// (same data pointer), which is how the validator sees the §III-D WAR
/// hazards a schedule's explicit edges must cover. A host-staging slot is
/// one whole-buffer token per (device, Stash, partition): its offload
/// writes it, its prefetch reads it.
///
/// The segment builders below drive the comm ops (AllToAll in the
/// pipeline, P2P fragments in FasterMoE), which annotate themselves from
/// the same segment tables they copy. Each walks the plan's per-token
/// (order, recv_row) pairs; the receive layout is the dispatcher's alone.

#include <string>
#include <vector>

#include "comm/all_to_all.h"
#include "comm/process_group.h"
#include "core/pipeline_schedule.h"
#include "mem/host_staging.h"

namespace mpipe::core {

// ---- segment builders (functional steps only) -------------------------------

/// Dispatch (S): token rows of every device's T_I chunk → their receive
/// rows in the destination T_DI buffers.
std::vector<comm::RowSegment> dispatch_segments(MoeStepContext& ctx, int p);

/// Backward dispatch (S'): rows of the gate-scaled d_ys buffers, in send
/// order → their receive rows in the d_TDO buffers.
std::vector<comm::RowSegment> grad_dispatch_segments(MoeStepContext& ctx,
                                                     int p);

/// Combine (R / R'): T_DO rows back to the original token positions of
/// T_O, or d_TDI rows back into dX when `backward` is true.
std::vector<comm::RowSegment> combine_segments(MoeStepContext& ctx, int p,
                                               bool backward);

// ---- emitters ----------------------------------------------------------------

/// The expert GEMM stages of one (partition, device).
enum class ExpertStage {
  kFfn1,       ///< C1: T_DI → T_M (w1, b1)
  kFfn2,       ///< C2: T_M → T_DO (w2, b2)
  kRecompute,  ///< Cr: T_M re-derived from the restored T_DI (S3, S4)
  kFused,      ///< C: T_DI → T_M → T_DO in one op (FasterMoE)
  kBackward,   ///< Cb: the four backward GEMMs, accumulating expert grads
};

/// The activation buffers the restores offload and prefetch.
using mem::Stash;

/// Appends ops to one graph of one step. Every emitter takes the op's
/// label and explicit deps and returns its id; device d's ops run on d.
class OpEmitter {
 public:
  /// `compute_scale` divides every GEMM's modelled duration (see
  /// PipelineScheduleBuilder). `refs` may be empty in timing-only steps.
  OpEmitter(sim::OpGraph& graph, MoeStepContext& ctx, const LayerRefs& refs,
            const comm::ProcessGroup& group, double compute_scale);

  /// Router GEMM forward. Its closure is empty: the dispatch plan needed
  /// the routing before the graph was built.
  int router(std::string label, int d);
  /// Router backward: dX += the gate's input gradient, gate weight grads
  /// accumulated.
  int router_backward(std::string label, int d, std::vector<int> deps);
  /// "ARg": the data-parallel AllReduce of the replicated router's weight
  /// gradients.
  int gate_grad_sync(std::vector<int> deps);

  /// T_O rows of partition p's chunk *= their token's gate.
  int gate_scale(std::string label, int p, int d, std::vector<int> deps);
  /// Backward of gate_scale: dgate for partition p's tokens and the
  /// gate-scaled, expert-sorted gradient rows of d_ys.
  int gate_scale_backward(std::string label, int p, int d,
                          std::vector<int> deps);

  /// One expert stage over the rows device d received in partition p.
  /// `rows` sizes the modelled GEMMs (a schedule may charge a device for
  /// rows it computes on another's behalf); declarations always cover
  /// the received rows.
  int expert(ExpertStage stage, std::string label, int p, int d,
             std::int64_t rows, std::vector<int> deps);

  /// D2H copy of device d's received rows of `what` in partition p into
  /// staging slot (d, what, p) of refs.staging: T_DI in ctx.dtype's wire
  /// format (the rows it already holds), T_M in fp32.
  int offload(Stash what, std::string label, int p, int d,
              std::vector<int> deps);
  /// H2D copy of slot (d, what, p) back into the ring slot `offload` read,
  /// emptying the staging slot for the next step.
  int prefetch(Stash what, std::string label, int p, int d,
               std::vector<int> deps);

 private:
  std::int64_t num_experts() const;
  /// offload (`to_host`) or prefetch of one staged activation block.
  int host_copy(Stash what, bool to_host, std::string label, int p, int d,
                std::vector<int> deps);

  sim::OpGraph& g_;
  MoeStepContext& ctx_;
  const LayerRefs& refs_;
  const comm::ProcessGroup& group_;
  const sim::CostModel& cost_;
  double compute_scale_;
};

}  // namespace mpipe::core
