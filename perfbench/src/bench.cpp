#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double windowed_rate(const std::vector<double>& work,
                     const std::vector<double>& seconds, std::size_t window) {
  window = std::max<std::size_t>(1, window);
  std::vector<double> rates;
  for (std::size_t begin = 0; begin + window <= work.size(); begin += window) {
    double w = 0.0, s = 0.0;
    for (std::size_t i = begin; i < begin + window; ++i) {
      w += work[i];
      s += seconds[i];
    }
    if (s > 0.0) rates.push_back(w / s);
  }
  if (rates.empty()) {
    // Fewer samples than one window: fall back to the whole-run rate.
    const double w = std::accumulate(work.begin(), work.end(), 0.0);
    const double s = std::accumulate(seconds.begin(), seconds.end(), 0.0);
    return s > 0.0 ? w / s : 0.0;
  }
  return median(rates);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Result::set(const std::string& name, double value) {
  values_[name] = value;
}

double Result::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("metric unset: " + name);
  return it->second;
}

void Result::fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

bool Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) fail("check: " + what);
  return ok;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"tokens_per_s", "tokens/s"},  {"iter_ms_p50", "ms"},
      {"iter_ms_p90", "ms"},         {"setup_s", "s"},
      {"host_rss_mib", "MiB"},       {"sim_step_ms", "ms"},
      {"peak_device_mib", "MiB"},    {"latency_ms_p50", "ms"},
      {"latency_ms_p99", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"tensor.compute_ops_ms", "ms"},
      {"tensor.gemm_gflops", "GFLOP/s"},
      {"tensor.gemm_gflops_f32", "GFLOP/s"},
      {"core.outside_graph_ms", "ms"},
      {"core.host_ops_ms", "ms"},
      {"core.search_hit_ratio", "ratio"},
      {"core.search_trials_per_iter", "count"},
      {"core.selector_regret", "ratio"},
      {"core.n_partitions_mean", "count"},
      {"core.forward_ms", "ms"},
      {"core.backward_ms", "ms"},
      {"core.requant_ms", "ms"},
      {"runtime.adam_ms", "ms"},
      {"runtime.loss_ms", "ms"},
      {"runtime.batch_gen_ms", "ms"},
      {"runtime.zero_grad_ms", "ms"},
      {"runtime.loss_final", "mse"},
      {"runtime.steps_failed", "count"},
      {"comm.alltoall_ops_ms", "ms"},
      {"comm.payload_bytes_per_iter", "B"},
      {"mem.offload_ops_ms", "ms"},
      {"mem.activations_mib", "MiB"},
      {"mem.temp_buffers_mib", "MiB"},
      {"mem.comm_buffers_mib", "MiB"},
      {"mem.host_staging_mib", "MiB"},
      {"serve.forward_only_ms", "ms"},
      {"serve.host_overhead_ms", "ms"},
      {"serve.batch_tokens_mean", "count"},
      {"serve.queue_delay_ms_p99", "ms"},
      {"serve.plan_tokens_per_device", "count"},
      {"serve.slo_attainment", "ratio"},
      {"serve.max_rate_rps", "req/s"},
      {"serve.requests_failed", "count"},
      {"sim.graph_makespan_ms", "ms"},
      {"sim.model_error", "ratio"},
      {"common.pool_tasks_per_iter", "count"},
      {"bench.trace_overhead", "ratio"},
      {"bench.trace_coverage", "ratio"},
      {"bench.error_rate", "ratio"},
  };
  return specs;
}

namespace {

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(Result& result, const std::vector<MetricSpec>& specs,
                        bool require_all) {
  std::ostringstream metrics;
  bool first = true;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    if (result.has(spec.name)) {
      value = result.get(spec.name);
    } else if (require_all) {
      result.fail(std::string("metric not measured: ") + spec.name);
    }
    if (!std::isfinite(value)) {
      result.fail(std::string("non-finite metric: ") + spec.name);
      value = 0.0;
    }
    metrics << (first ? "" : ", ") << '"' << spec.name << "\": {\"value\": "
            << json_number(value) << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  const std::int64_t attempted = std::max<std::int64_t>(1, result.attempted());
  std::ostringstream os;
  os << "{\"correct\": " << (result.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << result.failed()
     << ", \"metrics\": {" << metrics.str() << "}}";
  return os.str();
}

}  // namespace perfbench
