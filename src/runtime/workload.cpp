#include "runtime/workload.h"

#include <algorithm>

#include "common/check.h"

namespace mpipe::runtime {

WorkloadGenerator::WorkloadGenerator(WorkloadOptions options)
    : options_(options), rng_(options.seed) {
  MPIPE_EXPECTS(options_.tokens_per_device > 0, "empty workload");
  MPIPE_EXPECTS(options_.num_devices > 0, "no devices");
  MPIPE_EXPECTS(options_.batch_jitter >= 0.0 && options_.batch_jitter < 1.0,
                "jitter must be in [0, 1)");
}

std::vector<Tensor> WorkloadGenerator::next_batch() {
  std::int64_t tokens = options_.tokens_per_device;
  if (options_.batch_jitter > 0.0) {
    const double lo = static_cast<double>(tokens) *
                      (1.0 - options_.batch_jitter);
    const double hi = static_cast<double>(tokens) *
                      (1.0 + options_.batch_jitter);
    tokens = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(rng_.uniform(lo, hi)));
  }
  last_tokens_ = tokens;
  std::vector<Tensor> batch;
  batch.reserve(static_cast<std::size_t>(options_.num_devices));
  for (int d = 0; d < options_.num_devices; ++d) {
    Tensor x(Shape{tokens, options_.d_model});
    rng_.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f,
                     1.0f);
    batch.push_back(std::move(x));
  }
  return batch;
}

std::vector<Tensor> WorkloadGenerator::targets_for(
    const std::vector<Tensor>& batch) {
  std::vector<Tensor> targets;
  targets.reserve(batch.size());
  for (const Tensor& x : batch) {
    // A smooth deterministic function of the input keeps the regression
    // learnable: target = 0.5 * x (the layer must learn a contraction).
    Tensor t(x.shape());
    const float* src = x.data();
    float* dst = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i) dst[i] = 0.5f * src[i];
    targets.push_back(std::move(t));
  }
  return targets;
}

std::vector<std::int64_t> batch_size_trace(std::int64_t lo, std::int64_t hi,
                                           int steps, int buckets,
                                           std::uint64_t seed) {
  MPIPE_EXPECTS(lo >= 1 && hi >= lo, "bad batch range");
  MPIPE_EXPECTS(steps >= 1 && buckets >= 1, "bad trace arguments");
  Rng rng(seed);
  std::vector<std::int64_t> bucket_values;
  bucket_values.reserve(static_cast<std::size_t>(buckets));
  for (int i = 0; i < buckets; ++i) {
    bucket_values.push_back(
        lo + static_cast<std::int64_t>(rng.uniform_index(
                 static_cast<std::uint64_t>(hi - lo + 1))));
  }
  std::vector<std::int64_t> trace;
  trace.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    trace.push_back(bucket_values[rng.uniform_index(bucket_values.size())]);
  }
  return trace;
}

}  // namespace mpipe::runtime
