#include "serve/serve_metrics.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/stats.h"

namespace mpipe::serve {

void ServeMetrics::record_request(RequestRecord r) {
  MPIPE_EXPECTS(r.completion_seconds >= r.dispatch_seconds &&
                    r.dispatch_seconds >= r.arrival_seconds,
                "request timeline must be arrival <= dispatch <= completion");
  total_tokens_ += static_cast<std::uint64_t>(r.tokens);
  requests_.push_back(r);
}

void ServeMetrics::record_batch(BatchRecord b) { batches_.push_back(b); }

double ServeMetrics::latency_percentile(double p) const {
  if (requests_.empty()) return 0.0;
  std::vector<double> v;
  v.reserve(requests_.size());
  for (const RequestRecord& r : requests_) v.push_back(r.latency());
  return percentile(std::move(v), p);
}

double ServeMetrics::mean_batch_tokens() const {
  if (batches_.empty()) return 0.0;
  double total = 0.0;
  for (const BatchRecord& b : batches_) {
    total += static_cast<double>(b.tokens);
  }
  return total / static_cast<double>(batches_.size());
}

double ServeMetrics::tokens_per_second() const {
  if (requests_.empty()) return 0.0;
  double first_arrival = requests_.front().arrival_seconds;
  double last_completion = 0.0;
  for (const RequestRecord& r : requests_) {
    first_arrival = std::min(first_arrival, r.arrival_seconds);
    last_completion = std::max(last_completion, r.completion_seconds);
  }
  const double span = last_completion - first_arrival;
  if (span <= 0.0) return 0.0;
  return static_cast<double>(total_tokens_) / span;
}

std::string ServeMetrics::summary() const {
  std::ostringstream os;
  os << "served " << requests_served() << " requests (" << total_tokens_
     << " tokens) in " << batches_executed() << " batches; latency p50 "
     << latency_percentile(0.5) * 1e3 << " ms, p99 "
     << latency_percentile(0.99) * 1e3 << " ms; "
     << tokens_per_second() << " tokens/s; mean batch "
     << mean_batch_tokens() << " tokens";
  return os.str();
}

}  // namespace mpipe::serve
