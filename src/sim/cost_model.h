#pragma once
/// \file cost_model.h
/// Converts operation descriptions (FLOPs, bytes, participants) into
/// base durations at full stream speed. Interference is applied later by
/// the timing engine; this model captures launch latency, link bandwidth
/// and the analytic GEMM-efficiency curve (small micro-batches underutilise
/// the device — the effect behind Fig 2's utilisation track and the
/// n-too-large penalty in Fig 12). It describes the simulated machine
/// only; the gap to the machine that runs a step is fitted online per op
/// class by core::CorrectionWarmup.

#include <cstdint>
#include <vector>

#include "sim/topology.h"

namespace mpipe::sim {

struct CostModelConfig {
  /// Peak dense throughput of one device (FLOP/s). A100 TF32 ≈ 156 TFLOPS;
  /// the paper uses Tensor Cores, absolute scale cancels out in speedups.
  double peak_flops = 156.0e12;
  /// GEMM efficiency saturation: eff(rows) = rows / (rows + half_sat_rows).
  double gemm_half_sat_rows = 384.0;
  /// Upper bound on achievable efficiency.
  double gemm_max_efficiency = 0.92;
  /// Per-kernel fixed overhead (s) for compute kernels.
  double compute_launch_latency = 8.0e-6;
  /// Per-collective fixed overhead (s), charged per NCCL call.
  double comm_launch_latency = 14.0e-6;
  /// Per-P2P-transfer overhead (s); lower than a collective launch because
  /// NCCL P2P channels stay connected.
  double p2p_launch_latency = 5.0e-6;
  /// Per-memcpy fixed overhead (s).
  double memcpy_launch_latency = 6.0e-6;
};

class CostModel {
 public:
  CostModel(CostModelConfig config, Topology topology);

  /// GEMM efficiency in (0, 1] as a function of the M dimension (rows of
  /// the activation panel): the analytic saturation formula.
  double gemm_efficiency(std::int64_t rows) const;

  /// Duration of a GEMM with the given FLOP count and row panel size.
  double gemm_seconds(std::uint64_t flops, std::int64_t rows) const;

  /// Duration of a fused AllToAll where every participant holds
  /// `bytes_per_device` (counted in the payload's wire format) and
  /// exchanges all but its own 1/P share.
  double alltoall_seconds(std::uint64_t bytes_per_device,
                          const std::vector<int>& group) const;

  /// Duration of a point-to-point transfer.
  double p2p_seconds(std::uint64_t bytes, int src, int dst) const;

  /// Duration of a device<->host copy over PCIe.
  double memcpy_seconds(std::uint64_t bytes, int device) const;

  /// Ring AllReduce over `group`, 2*(P-1)/P traffic factor.
  double allreduce_seconds(std::uint64_t bytes_per_device,
                           const std::vector<int>& group) const;

  /// Broadcast (pipelined ring) of `bytes` from root to group.
  double broadcast_seconds(std::uint64_t bytes,
                           const std::vector<int>& group) const;

  const Topology& topology() const { return topology_; }
  const CostModelConfig& config() const { return config_; }

 private:
  CostModelConfig config_;
  Topology topology_;
};

}  // namespace mpipe::sim
