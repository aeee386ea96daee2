#pragma once
/// \file bench.h
/// Shared pieces of the end-to-end benchmark: command-line arguments, the
/// result record every workload fills (metrics plus attempted/failed
/// operation counts), robust statistics and the JSON result line.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Source revision recorded in the run context (passed by run.py).
  std::string commit = "unknown";
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile, q in [0, 1] (numpy's default method).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Median over consecutive windows of `window` samples of
/// sum(work) / sum(seconds): a throughput that one preempted window
/// cannot drag, unlike a whole-run total.
double windowed_rate(const std::vector<double>& work,
                     const std::vector<double>& seconds, std::size_t window);

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

inline constexpr double kMiB = 1024.0 * 1024.0;

/// What one workload run produced. Every output check counts as one
/// attempted operation, and a failed check as a failed one, next to the
/// workload's own operations (training steps, served requests).
class Result {
 public:
  void set(const std::string& name, double value);
  bool has(const std::string& name) const { return values_.count(name) > 0; }
  double get(const std::string& name) const;

  void attempt(std::int64_t operations) { attempted_ += operations; }
  void fail(const std::string& what);
  /// Records one output check; returns `ok`.
  bool check(bool ok, const std::string& what);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::map<std::string, double> values_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// One reported metric: its name and unit, as BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (printed without --trace) and the per-layer
/// metrics (printed with --trace 1), in BENCHMARK.json order.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Metrics a workload did not set print as 0 (per-layer metrics of a
/// layer the workload does not exercise); a missing end-to-end metric or
/// a non-finite value fails the run instead.
std::string result_json(Result& result, const std::vector<MetricSpec>& specs,
                        bool require_all);

// Workload entry points (train.cpp, serve.cpp).
void run_train_pipelined(const Args& args, Result& result);
void run_train_dynamic_bf16(const Args& args, Result& result);
void run_serve_bursty(const Args& args, Result& result);

}  // namespace perfbench
