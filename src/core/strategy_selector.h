#pragma once
/// \file strategy_selector.h
/// The paper's analytic model of adaptive selection (§III-E): evaluate the
/// Eq-10 cost of every memory-reusing strategy under the measured hardware
/// speeds and pick the cheapest. Speeds are derived from the cluster's
/// cost model and interference matrix — the same quantities the paper
/// measures with micro-benchmarks. MoELayer ranks strategies with its
/// corrected timing-only probes instead (they see the wire dtype, d_model
/// and pipeline fill/drain); this model serves Table II and ServePlan.

#include <vector>

#include "core/perf_model.h"
#include "sim/cluster.h"

namespace mpipe::core {

struct StrategyChoice {
  ReuseStrategy strategy = ReuseStrategy::kS1;
  double predicted_seconds = 0.0;
  /// Predicted seconds of every candidate, in S1..S4 order.
  std::vector<double> candidate_costs;
};

class StrategySelector {
 public:
  /// Derives PerfModelParams from the cluster (micro-batch size b fixes
  /// the GEMM efficiency point).
  static PerfModelParams measure(const sim::Cluster& cluster,
                                 std::int64_t micro_batch);

  /// `corrections` are the measured/modeled per-op-class factors fitted
  /// from profiled steps (sim::CorrectionFit): a class whose ops measure
  /// k× slower than modeled has its effective stream speed divided by k
  /// before the Eq-10 ranking, so the selector ranks strategies by
  /// reality-corrected costs. The identity (default) leaves every
  /// candidate cost bit-for-bit unchanged.
  explicit StrategySelector(PerfModelParams params,
                            sim::OpClassCorrections corrections = {});

  /// Picks the cheapest of S1..S4 for a micro-batch of b tokens.
  StrategyChoice select(std::int64_t b, std::int64_t m, std::int64_t h) const;

  const PerfModel& model() const { return model_; }

 private:
  PerfModel model_;
};

}  // namespace mpipe::core
