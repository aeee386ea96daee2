#pragma once
/// \file slo_policy.h
/// Latency-SLO-driven batch/granularity planning — the serving counterpart
/// of the training tier's throughput objective. Training asks "which (n,
/// strategy) minimises step time for a fixed batch"; serving inverts the
/// question: "what is the largest batch (and its best n) whose predicted
/// forward latency still meets the SLO". Bigger admitted batches buy
/// tokens/s, the SLO caps how much latency that purchase may cost.
///
/// The selector probes a ladder of per-device batch sizes through
/// MoELayer::probe_forward_seconds — the corrected probes the layer ranks
/// (n, strategy) with, but timing the *inference* graph (no offloads, no
/// backward). It also ranks S1–S4 at the chosen point by the paper's
/// analytic Eq-10 forward costs, for reporting only: forward_only strips
/// every offload op, so the strategies' forward schedules coincide.

#include <cstdint>
#include <string>
#include <vector>

#include "core/moe_layer.h"

namespace mpipe::serve {

struct SloPolicyOptions {
  /// Per-dispatch forward-latency target in seconds; 0 disables the cap
  /// (the plan then admits max_tokens_per_device outright).
  double slo_seconds = 0.0;
  /// Upper bound of the probed per-device batch ladder (powers of two up
  /// to and including this value).
  std::int64_t max_tokens_per_device = 256;
};

/// One probed operating point: the best partition count at that batch size
/// and its predicted forward latency.
struct ServeRung {
  std::int64_t tokens_per_device = 0;
  int n_partitions = 1;
  double predicted_seconds = 0.0;
};

struct ServePlan {
  /// Admission cap handed to the batcher (tokens_per_device × devices).
  std::int64_t max_batch_tokens = 0;
  std::int64_t tokens_per_device = 0;
  int n_partitions = 1;
  double predicted_seconds = 0.0;
  /// False when even the smallest probed batch misses the SLO; the plan
  /// then degrades to that smallest rung rather than refusing to serve.
  bool slo_feasible = true;
  /// Eq-10 forward-cost ranking at the chosen operating point (S1..S4
  /// order, seconds) and its argmin — reporting, see file comment.
  std::vector<double> strategy_forward_costs;
  core::ReuseStrategy strategy = core::ReuseStrategy::kS4;
  /// Every probed rung, ascending batch size (inspection / tests).
  std::vector<ServeRung> rungs;

  /// Wire/storage dtype the probed layer runs with
  /// (MoELayerOptions::compute_dtype) — the format every rung's predicted
  /// latency was costed in.
  DType compute_dtype = DType::kF32;
  /// Which cost curves the ranked probes consulted, e.g.
  /// "gemm calibrated[shared], comm analytic" — calibrated[shared] is a
  /// measured curve that serves every compute dtype (comm payloads are
  /// counted in wire bytes), analytic the closed-form model.
  std::string curve_provenance;

  std::string summary() const;
};

class SloSelector {
 public:
  SloSelector(core::MoELayer& layer, SloPolicyOptions options);

  /// Probes the ladder under the layer's *current* corrections and picks
  /// the largest SLO-feasible rung. Call again after set_corrections — the
  /// server re-plans when its warmup fit lands.
  ServePlan plan();

  /// Best partition count for a dispatch of `tokens_per_device` rows,
  /// looked up from the last plan's rungs (smallest rung that covers the
  /// request; the top rung for anything larger). plan() must have run.
  int partitions_for(std::int64_t tokens_per_device) const;

  const ServePlan& last_plan() const { return plan_; }

 private:
  core::MoELayer* layer_;
  SloPolicyOptions options_;
  ServePlan plan_;
};

}  // namespace mpipe::serve
