#include "core/strategy_selector.h"

#include "common/check.h"

namespace mpipe::core {

PerfModelParams StrategySelector::measure(const sim::Cluster& cluster,
                                          std::int64_t micro_batch) {
  MPIPE_EXPECTS(micro_batch > 0, "empty micro batch");
  PerfModelParams p;
  const auto& cost = cluster.cost_model();
  p.w_comp = cost.config().peak_flops * cost.gemm_efficiency(micro_batch);
  p.w_comm = cluster.topology().alltoall_bandwidth(cluster.all_device_ids());
  p.w_mem = cluster.topology().pcie_bandwidth(0);
  p.mu_comp = cluster.interference().mu_comp();
  p.mu_all = cluster.interference().mu_all();
  p.sigma = cluster.interference().sigma_comm();
  p.eta_all = cluster.interference().eta_all();
  return p;
}

namespace {

/// Measured time = factor × modeled time, and modeled time = work / speed,
/// so a fitted factor k is equivalent to the stream running at speed/k.
/// Folding the corrections into the speeds keeps Eq-10 untouched and makes
/// the identity corrections an exact no-op.
PerfModelParams corrected(PerfModelParams p,
                          const sim::OpClassCorrections& c) {
  if (c.identity()) return p;
  MPIPE_EXPECTS(c.compute > 0.0 && c.comm > 0.0 && c.memcpy > 0.0,
                "correction factors must be positive");
  p.w_comp /= c.compute;
  p.w_comm /= c.comm;
  p.w_mem /= c.memcpy;
  return p;
}

}  // namespace

StrategySelector::StrategySelector(PerfModelParams params,
                                   sim::OpClassCorrections corrections)
    : model_(corrected(params, corrections)) {}

StrategyChoice StrategySelector::select(std::int64_t b, std::int64_t m,
                                        std::int64_t h) const {
  static constexpr ReuseStrategy kCandidates[] = {
      ReuseStrategy::kS1, ReuseStrategy::kS2, ReuseStrategy::kS3,
      ReuseStrategy::kS4};
  StrategyChoice choice;
  choice.predicted_seconds = -1.0;
  for (ReuseStrategy s : kCandidates) {
    const double cost = model_.step_cost(s, b, m, h);
    choice.candidate_costs.push_back(cost);
    if (choice.predicted_seconds < 0.0 || cost < choice.predicted_seconds) {
      choice.predicted_seconds = cost;
      choice.strategy = s;
    }
  }
  return choice;
}

}  // namespace mpipe::core
