#include "sim/cost_model.h"

#include <utility>

#include "common/check.h"

namespace mpipe::sim {

CostModel::CostModel(CostModelConfig config, Topology topology)
    : config_(std::move(config)), topology_(std::move(topology)) {
  MPIPE_EXPECTS(config_.peak_flops > 0, "peak_flops must be positive");
  MPIPE_EXPECTS(config_.gemm_half_sat_rows > 0, "half_sat must be positive");
  MPIPE_EXPECTS(config_.gemm_max_efficiency > 0 &&
                    config_.gemm_max_efficiency <= 1.0,
                "efficiency bound must be in (0, 1]");
}

double CostModel::gemm_efficiency(std::int64_t rows) const {
  MPIPE_EXPECTS(rows > 0, "gemm with no rows");
  const double r = static_cast<double>(rows);
  return config_.gemm_max_efficiency * r / (r + config_.gemm_half_sat_rows);
}

double CostModel::gemm_seconds(std::uint64_t flops,
                               std::int64_t rows) const {
  const double eff = gemm_efficiency(rows);
  return config_.compute_launch_latency +
         static_cast<double>(flops) / (config_.peak_flops * eff);
}

double CostModel::alltoall_seconds(std::uint64_t bytes_per_device,
                                   const std::vector<int>& group) const {
  MPIPE_EXPECTS(group.size() >= 2, "alltoall needs >= 2 participants");
  const double p = static_cast<double>(group.size());
  const double bw = topology_.alltoall_bandwidth(group);
  const double payload =
      static_cast<double>(bytes_per_device) * (p - 1.0) / p;
  return config_.comm_launch_latency + payload / bw;
}

double CostModel::p2p_seconds(std::uint64_t bytes, int src, int dst) const {
  return config_.p2p_launch_latency +
         static_cast<double>(bytes) / topology_.p2p_bandwidth(src, dst);
}

double CostModel::memcpy_seconds(std::uint64_t bytes, int device) const {
  return config_.memcpy_launch_latency +
         static_cast<double>(bytes) / topology_.pcie_bandwidth(device);
}

double CostModel::allreduce_seconds(std::uint64_t bytes_per_device,
                                    const std::vector<int>& group) const {
  MPIPE_EXPECTS(group.size() >= 2, "allreduce needs >= 2 participants");
  const double p = static_cast<double>(group.size());
  const double bw = topology_.alltoall_bandwidth(group);
  const double payload =
      2.0 * static_cast<double>(bytes_per_device) * (p - 1.0) / p;
  return config_.comm_launch_latency + payload / bw;
}

double CostModel::broadcast_seconds(std::uint64_t bytes,
                                    const std::vector<int>& group) const {
  MPIPE_EXPECTS(group.size() >= 2, "broadcast needs >= 2 participants");
  const double bw = topology_.alltoall_bandwidth(group);
  return config_.comm_launch_latency + static_cast<double>(bytes) / bw;
}

}  // namespace mpipe::sim
