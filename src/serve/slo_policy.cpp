#include "serve/slo_policy.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "core/strategy_selector.h"

namespace mpipe::serve {

std::string ServePlan::summary() const {
  std::ostringstream os;
  os << "serve plan: admit " << tokens_per_device << " tokens/device ("
     << max_batch_tokens << " total), n=" << n_partitions << ", predicted "
     << predicted_seconds * 1e3 << " ms"
     << (slo_feasible ? "" : " [SLO INFEASIBLE — degraded to smallest rung]")
     << ", Eq-10 forward argmin " << core::to_string(strategy)
     << ", dtype " << to_string(compute_dtype);
  if (!curve_provenance.empty()) os << " (" << curve_provenance << ")";
  return os.str();
}

SloSelector::SloSelector(core::MoELayer& layer, SloPolicyOptions options)
    : layer_(&layer), options_(options) {
  MPIPE_EXPECTS(options.slo_seconds >= 0.0, "negative SLO");
  MPIPE_EXPECTS(options.max_tokens_per_device >= 1,
                "empty batch ladder");
}

ServePlan SloSelector::plan() {
  ServePlan plan;
  const auto candidates = core::partition_candidates(layer_->options());
  plan.compute_dtype = layer_->options().compute_dtype;
  {
    // Record which curves probe_forward_seconds will consult, so the
    // summary can say what ranked the rungs.
    const auto& cfg = layer_->cluster().cost_model().config();
    auto source = [](bool empty) {
      return empty ? "analytic" : "calibrated[shared]";
    };
    plan.curve_provenance =
        std::string("gemm ") + source(cfg.gemm_curve.empty()) + ", comm " +
        source(cfg.comm_curve.empty());
  }

  // Probe ladder: powers of two up to max_tokens_per_device, plus the cap
  // itself when it is not a power of two.
  std::vector<std::int64_t> ladder;
  for (std::int64_t b = 1; b < options_.max_tokens_per_device; b *= 2) {
    ladder.push_back(b);
  }
  ladder.push_back(options_.max_tokens_per_device);

  for (const std::int64_t b : ladder) {
    ServeRung rung;
    rung.tokens_per_device = b;
    rung.predicted_seconds = -1.0;
    for (const int n : candidates) {
      if (n > b) continue;  // empty partitions probe nothing real
      const double t = layer_->probe_forward_seconds(b, n);
      if (rung.predicted_seconds < 0.0 || t < rung.predicted_seconds) {
        rung.predicted_seconds = t;
        rung.n_partitions = n;
      }
    }
    if (rung.predicted_seconds < 0.0) {
      // Every candidate exceeds b (e.g. candidates start at 8): run the
      // smallest candidate anyway — partitions beyond the batch are
      // degenerate but legal.
      rung.n_partitions = *std::min_element(candidates.begin(),
                                            candidates.end());
      rung.predicted_seconds =
          layer_->probe_forward_seconds(b, rung.n_partitions);
    }
    plan.rungs.push_back(rung);
  }

  // Largest rung whose prediction meets the SLO; the smallest rung
  // (degraded, flagged) when none does. No SLO -> the top rung.
  const ServeRung* chosen = nullptr;
  for (const ServeRung& r : plan.rungs) {
    if (options_.slo_seconds <= 0.0 ||
        r.predicted_seconds <= options_.slo_seconds) {
      chosen = &r;
    }
  }
  plan.slo_feasible = chosen != nullptr;
  if (chosen == nullptr) chosen = &plan.rungs.front();
  plan.tokens_per_device = chosen->tokens_per_device;
  plan.n_partitions = chosen->n_partitions;
  plan.predicted_seconds = chosen->predicted_seconds;
  plan.max_batch_tokens =
      chosen->tokens_per_device * layer_->num_devices();

  // Eq-10 forward ranking at the operating point (reporting only).
  const std::int64_t micro = std::max<std::int64_t>(
      1, plan.tokens_per_device / plan.n_partitions);
  const core::MoELayerOptions& lo = layer_->options();
  core::StrategySelector selector(
      core::StrategySelector::measure(layer_->cluster(), micro),
      layer_->corrections());
  const core::ReuseStrategy all[] = {
      core::ReuseStrategy::kS1, core::ReuseStrategy::kS2,
      core::ReuseStrategy::kS3, core::ReuseStrategy::kS4};
  double best = 0.0;
  for (const core::ReuseStrategy s : all) {
    const double c =
        selector.model().forward_cost(s, micro, lo.d_model, lo.d_hidden);
    plan.strategy_forward_costs.push_back(c);
    if (plan.strategy_forward_costs.size() == 1 || c < best) {
      best = c;
      plan.strategy = s;
    }
  }

  plan_ = plan;
  return plan;
}

int SloSelector::partitions_for(std::int64_t tokens_per_device) const {
  MPIPE_EXPECTS(!plan_.rungs.empty(), "partitions_for before plan()");
  for (const ServeRung& r : plan_.rungs) {
    if (r.tokens_per_device >= tokens_per_device) return r.n_partitions;
  }
  return plan_.rungs.back().n_partitions;
}

}  // namespace mpipe::serve
