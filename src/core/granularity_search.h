#pragma once
/// \file granularity_search.h
/// Algorithm 1: adaptive pipeline-granularity configuration. Batch sizes in
/// MoE training are dynamic, so the searcher amortises trials by (a) a hash
/// cache of exact B values and (b) the RangeSet exploiting that the optimal
/// n grows monotonically with B.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/range_set.h"
#include "tensor/dtype.h"

namespace mpipe::core {

struct SearchStats {
  std::size_t cache_hits = 0;
  std::size_t range_hits = 0;
  std::size_t full_searches = 0;
  std::size_t trials = 0;  ///< individual (B, n) measurements
  std::size_t invalidations = 0;  ///< cache flushes after trial-fn changes
};

class GranularitySearcher {
 public:
  /// `trial` measures (or simulates) one training step with the given batch
  /// size and partition count, returning seconds; `candidates` is the n
  /// search space (powers of two in the paper's evaluation).
  using TrialFn = std::function<double(std::int64_t b, int n)>;

  GranularitySearcher(std::vector<int> candidates, TrialFn trial);

  /// Algorithm 1: returns the number of partitions for batch size B.
  int configure(std::int64_t b);

  /// Drops the exact-B cache and the monotone ranges so every future
  /// configure() re-measures. Required whenever the trial function's cost
  /// landscape changes underneath the searcher (new correction factors, a
  /// new routing skew): stale verdicts would otherwise shadow it forever.
  void invalidate();

  const SearchStats& stats() const { return stats_; }
  const RangeSet& ranges() const { return ranges_; }

  /// Cache + range state for checkpoint/restore. Algorithm 1's verdicts
  /// are history-dependent (a range hit can return a different n than a
  /// fresh full search would), and the partition count changes the step
  /// math bitwise — so a bitwise-identical resume must restore the
  /// searcher's memory, not just invalidate it. The cache is exported
  /// key-ascending so the serialized form is deterministic.
  struct State {
    std::vector<std::pair<std::int64_t, int>> cache;
    std::vector<BatchRange> ranges;
  };
  State export_state() const;
  void import_state(const State& state);

  /// [smallest, largest] micro-batch row count Algorithm 1 can probe for
  /// batches in [min_tokens, max_tokens] over `candidates` (each trial
  /// splits B into n partitions of floor(B/n) / floor(B/n)+1 rows — the
  /// lower bound uses the floor chunk). This is the row range a
  /// calibrated cost-model efficiency curve must cover when GEMM panels
  /// are whole micro-batches — pass it to sim::apply_calibration so
  /// divergence fails at load time. The pipeline schedule actually
  /// evaluates efficiency per expert panel (rows / experts_per_device);
  /// use expert_panel_range for that tighter contract.
  static std::pair<std::int64_t, std::int64_t> row_range(
      std::int64_t min_tokens, std::int64_t max_tokens,
      const std::vector<int>& candidates);

  /// row_range tightened to what the schedule builder feeds
  /// gemm_efficiency: each device's received micro-batch is split across
  /// its local experts, so the smallest probed panel is
  /// floor(min_tokens/max_n) / experts_per_device (clamped to >= 1). The
  /// upper bound keeps the whole-micro-batch ceil(max_tokens/min_n):
  /// under routing skew the hot device can receive several devices'
  /// shares, and the headroom keeps those probes interpolating instead of
  /// extrapolating (beyond it the curve clamps to its plateau knot).
  static std::pair<std::int64_t, std::int64_t> expert_panel_range(
      std::int64_t min_tokens, std::int64_t max_tokens,
      const std::vector<int>& candidates, int experts_per_device);

  /// [smallest, largest] AllToAll payload (bytes the busiest participant
  /// sends) Algorithm 1 can present to the comm cost model for batches in
  /// [min_tokens, max_tokens] over `candidates`, with `d_model`-wide rows
  /// exchanged across `group_size` devices in `dtype`'s wire format
  /// (dtype-width elements plus one fp32 scale per int8 row). The lower bound is the
  /// balanced exchange of the smallest probed micro-batch (each device
  /// keeps its 1/P share); the upper bound is full skew of the largest
  /// (every row leaves the device). Mostly-local routings fall below the
  /// lower bound and clamp to the curve's front knot, which is documented
  /// behaviour — this is the byte range a calibrated CommBandwidthCurve
  /// must cover, pass it to sim::apply_comm_calibration.
  static std::pair<std::uint64_t, std::uint64_t> alltoall_payload_range(
      std::int64_t min_tokens, std::int64_t max_tokens,
      const std::vector<int>& candidates, std::int64_t d_model,
      int group_size, DType dtype = DType::kF32);

 private:
  /// Exhaustive argmin over the candidates (searchBestGran): one trial per
  /// n that leaves every partition at least one token. configure() runs it
  /// on a cache and range miss.
  int search_best(std::int64_t b);

  std::vector<int> candidates_;
  TrialFn trial_;
  RangeSet ranges_;
  std::unordered_map<std::int64_t, int> cache_;
  SearchStats stats_;
};

}  // namespace mpipe::core
