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
