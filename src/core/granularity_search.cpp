#include "core/granularity_search.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace mpipe::core {

GranularitySearcher::GranularitySearcher(std::vector<int> candidates,
                                         TrialFn trial)
    : candidates_(std::move(candidates)), trial_(std::move(trial)) {
  MPIPE_EXPECTS(!candidates_.empty(), "no candidate partition counts");
  MPIPE_EXPECTS(static_cast<bool>(trial_), "null trial function");
  for (int n : candidates_) {
    MPIPE_EXPECTS(n >= 1, "partition count must be >= 1");
  }
}

int GranularitySearcher::search_best(std::int64_t b) {
  ++stats_.full_searches;
  double best_cost = std::numeric_limits<double>::infinity();
  int best_n = candidates_.front();
  for (int n : candidates_) {
    if (n > b && b > 0) continue;  // cannot split below one token
    ++stats_.trials;
    const double cost = trial_(b, n);
    if (cost < best_cost) {
      best_cost = cost;
      best_n = n;
    }
  }
  return best_n;
}

GranularitySearcher::State GranularitySearcher::export_state() const {
  State state;
  state.cache.assign(cache_.begin(), cache_.end());
  std::sort(state.cache.begin(), state.cache.end());
  state.ranges = ranges_.entries();
  return state;
}

void GranularitySearcher::import_state(const State& state) {
  cache_.clear();
  cache_.insert(state.cache.begin(), state.cache.end());
  ranges_.restore(state.ranges);
}

void GranularitySearcher::invalidate() {
  cache_.clear();
  ranges_ = RangeSet{};
  ++stats_.invalidations;
}

int GranularitySearcher::configure(std::int64_t b) {
  MPIPE_EXPECTS(b >= 1, "batch must hold at least one token");
  // Lines 3-5: exact-B cache.
  if (auto it = cache_.find(b); it != cache_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }
  // Line 6: range lookup.
  int n;
  if (auto found = ranges_.find(b)) {
    ++stats_.range_hits;
    n = *found;
  } else {
    // Lines 7-15: full search, then grow/insert the range for n.
    n = search_best(b);
    ranges_.record(b, n);
  }
  cache_[b] = n;
  return n;
}

}  // namespace mpipe::core
