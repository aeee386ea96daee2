#include "baselines/fastmoe.h"

#include <string>

#include "common/check.h"

namespace mpipe::baselines {

core::MoELayerOptions unpipelined_options(core::MoELayerOptions options,
                                          const char* baseline) {
  MPIPE_EXPECTS(options.num_partitions == 0 || options.num_partitions == 1,
                std::string(baseline) + " runs one partition");
  MPIPE_EXPECTS(!options.strategy.has_value(),
                std::string(baseline) + " has no reuse strategy");
  options.pipeline = false;
  options.num_partitions = 1;
  options.memory_reuse = false;
  return options;
}

FastMoELayer::FastMoELayer(sim::Cluster& cluster,
                           core::MoELayerOptions options)
    : core::MoELayer(cluster,
                     unpipelined_options(std::move(options), "FastMoE"),
                     std::make_unique<core::PipelineScheduleBuilder>(
                         cluster, kCudaCoreComputeScale,
                         kGroupedAllToAllCommScale)) {}

}  // namespace mpipe::baselines
