#pragma once
/// \file topology.h
/// Cluster topology: N devices grouped into nodes; NVLink-class bandwidth
/// inside a node, InfiniBand-class bandwidth across nodes, PCIe to the host.
/// Mirrors the paper's testbed (8 nodes × 8 A100, NVLink3 + 200 Gbps HDR).

#include <cstdint>
#include <vector>

namespace mpipe::sim {

struct TopologyConfig {
  int num_devices = 8;
  int devices_per_node = 8;
  /// Per-GPU NVLink bandwidth (bytes/s).
  double intra_node_bw = 250.0e9;
  /// Effective per-GPU inter-node bandwidth for a fused many-rank AllToAll
  /// (bytes/s). DGX A100 has one 200 Gbps HDR NIC per GPU (25 GB/s line
  /// rate); a well-tuned fused NCCL AllToAll sustains ~20 GB/s of it.
  double inter_node_bw = 20.0e9;
  /// Point-to-point transfers (and P2P-decomposed exchanges, i.e.
  /// FasterMoE's split-by-N and FastMoE's grouped send/recv) reach only a
  /// fraction of the fused bandwidth: single-channel paths, no
  /// multi-rail aggregation.
  double p2p_efficiency = 0.55;
  /// PCIe gen4 x16 host link per GPU (bytes/s).
  double pcie_bw = 22.0e9;
  /// Optional per-device bandwidth multiplier (heterogeneous networks);
  /// empty means homogeneous 1.0.
  std::vector<double> device_bw_scale;
};

class Topology {
 public:
  explicit Topology(TopologyConfig config);

  /// Single-node convenience factory.
  static Topology single_node(int num_devices);

  int num_devices() const { return config_.num_devices; }
  int devices_per_node() const { return config_.devices_per_node; }
  int node_of(int device) const;
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// Point-to-point bandwidth between two distinct devices (bytes/s),
  /// already including any per-device heterogeneity scale.
  double p2p_bandwidth(int src, int dst) const;

  /// Effective per-device bandwidth for an AllToAll over `group`:
  /// the bottleneck link class times the slowest participant's scale.
  double alltoall_bandwidth(const std::vector<int>& group) const;

  double pcie_bandwidth(int device) const;

  double device_scale(int device) const;

  const TopologyConfig& config() const { return config_; }

 private:
  TopologyConfig config_;
};

}  // namespace mpipe::sim
