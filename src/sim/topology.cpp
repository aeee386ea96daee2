#include "sim/topology.h"

#include <algorithm>

#include "common/check.h"

namespace mpipe::sim {

Topology::Topology(TopologyConfig config) : config_(std::move(config)) {
  MPIPE_EXPECTS(config_.num_devices > 0, "need at least one device");
  MPIPE_EXPECTS(config_.devices_per_node > 0, "need devices per node");
  MPIPE_EXPECTS(config_.intra_node_bw > 0 && config_.inter_node_bw > 0 &&
                    config_.pcie_bw > 0,
                "bandwidths must be positive");
  MPIPE_EXPECTS(config_.p2p_efficiency > 0 && config_.p2p_efficiency <= 1.0,
                "p2p efficiency must be in (0, 1]");
  if (!config_.device_bw_scale.empty()) {
    MPIPE_EXPECTS(static_cast<int>(config_.device_bw_scale.size()) ==
                      config_.num_devices,
                  "device_bw_scale size mismatch");
    for (double s : config_.device_bw_scale) {
      MPIPE_EXPECTS(s > 0, "bandwidth scale must be positive");
    }
  }
}

Topology Topology::single_node(int num_devices) {
  TopologyConfig cfg;
  cfg.num_devices = num_devices;
  cfg.devices_per_node = num_devices;
  return Topology(cfg);
}

Topology Topology::multi_node(int nodes, int devices_per_node) {
  TopologyConfig cfg;
  cfg.num_devices = nodes * devices_per_node;
  cfg.devices_per_node = devices_per_node;
  return Topology(cfg);
}

int Topology::num_nodes() const {
  return (config_.num_devices + config_.devices_per_node - 1) /
         config_.devices_per_node;
}

int Topology::node_of(int device) const {
  MPIPE_EXPECTS(device >= 0 && device < config_.num_devices,
                "device out of range");
  return device / config_.devices_per_node;
}

double Topology::device_scale(int device) const {
  MPIPE_EXPECTS(device >= 0 && device < config_.num_devices,
                "device out of range");
  if (config_.device_bw_scale.empty()) return 1.0;
  return config_.device_bw_scale[static_cast<std::size_t>(device)];
}

double Topology::p2p_bandwidth(int src, int dst) const {
  MPIPE_EXPECTS(src != dst, "p2p between a device and itself");
  const double base =
      same_node(src, dst) ? config_.intra_node_bw : config_.inter_node_bw;
  return base * config_.p2p_efficiency *
         std::min(device_scale(src), device_scale(dst));
}

double Topology::alltoall_bandwidth(const std::vector<int>& group) const {
  MPIPE_EXPECTS(group.size() >= 2, "alltoall needs >= 2 participants");
  bool crosses_nodes = false;
  double min_scale = device_scale(group[0]);
  for (std::size_t i = 0; i < group.size(); ++i) {
    min_scale = std::min(min_scale, device_scale(group[i]));
    if (!same_node(group[0], group[i])) crosses_nodes = true;
  }
  const double base =
      crosses_nodes ? config_.inter_node_bw : config_.intra_node_bw;
  return base * min_scale;
}

double Topology::pcie_bandwidth(int device) const {
  return config_.pcie_bw * device_scale(device);
}

}  // namespace mpipe::sim
