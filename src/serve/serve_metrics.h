#pragma once
/// \file serve_metrics.h
/// Per-request latency accounting for the serving tier. Training metrics
/// aggregate per step; serving quality lives in the tail, so every request
/// keeps its own arrival → dispatch → completion timeline and the summary
/// reports percentiles over them, not means.

#include <cstdint>
#include <string>
#include <vector>

namespace mpipe::serve {

/// One served request's timeline on the virtual clock.
struct RequestRecord {
  std::int64_t id = 0;
  std::int64_t tokens = 0;
  double arrival_seconds = 0.0;
  double dispatch_seconds = 0.0;    ///< when its batch started executing
  double completion_seconds = 0.0;  ///< when its batch finished

  double latency() const { return completion_seconds - arrival_seconds; }
  double queue_delay() const { return dispatch_seconds - arrival_seconds; }
};

/// One executed micro-batch.
struct BatchRecord {
  std::int64_t requests = 0;
  std::int64_t tokens = 0;           ///< real tokens (padding excluded)
  int n_partitions = 1;
  double dispatch_seconds = 0.0;     ///< virtual-clock start
  double service_seconds = 0.0;      ///< what the virtual clock advanced by
  double modeled_seconds = 0.0;      ///< simulated forward makespan
  double measured_seconds = 0.0;     ///< profiled wall makespan (0 = off)
};

class ServeMetrics {
 public:
  void record_request(RequestRecord r);
  void record_batch(BatchRecord b);

  const std::vector<RequestRecord>& requests() const { return requests_; }
  const std::vector<BatchRecord>& batches() const { return batches_; }

  std::size_t requests_served() const { return requests_.size(); }
  std::size_t batches_executed() const { return batches_.size(); }
  std::uint64_t total_tokens() const { return total_tokens_; }

  /// p in [0, 1] over per-request end-to-end latency.
  double latency_percentile(double p) const;
  double mean_batch_tokens() const;

  /// Aggregate throughput: total real tokens over the span from the first
  /// arrival to the last completion (virtual clock).
  double tokens_per_second() const;

  std::string summary() const;

 private:
  std::vector<RequestRecord> requests_;
  std::vector<BatchRecord> batches_;
  std::uint64_t total_tokens_ = 0;
};

}  // namespace mpipe::serve
