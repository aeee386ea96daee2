#include "baselines/fastmoe.h"

namespace mpipe::baselines {

namespace {
core::MoELayerOptions to_layer_options(const FastMoEOptions& options) {
  core::MoELayerOptions o;
  o.d_model = options.d_model;
  o.d_hidden = options.d_hidden;
  o.num_experts = options.num_experts;
  o.activation = options.activation;
  o.pipeline = false;
  o.num_partitions = 1;
  o.memory_reuse = false;
  o.compute_scale = options.compute_scale;
  o.comm_scale = options.comm_scale;
  o.parallel_execution = options.parallel_execution;
  o.mode = options.mode;
  o.seed = options.seed;
  return o;
}
}  // namespace

FastMoELayer::FastMoELayer(sim::Cluster& cluster, FastMoEOptions options)
    : core::MoELayer(cluster, to_layer_options(options)) {}

}  // namespace mpipe::baselines
