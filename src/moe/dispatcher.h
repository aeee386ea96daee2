#pragma once
/// \file dispatcher.h
/// Routing plans for expert parallelism. Given each token's expert, the
/// dispatcher derives — per pipeline partition — each source device's
/// send order and the receive row of every routed token. MPipeMoE
/// partitions the batch dimension (paper Fig 5b), so every partition runs
/// its own small, fused AllToAll.
///
/// Receive rows are expert-major: a device's partition buffer holds local
/// expert 0's rows (from sources 0..P-1 in rank order, each source's
/// tokens in its `order`), then expert 1's, and so on. Every local expert
/// therefore owns one contiguous RowSpan of the T_DI / T_M / T_DO ring
/// slots, and the expert GEMMs run on row views of the slots themselves.
///
/// Two construction modes:
///  - build():      exact plan from real gating decisions (functional runs)
///  - synthetic():  balanced counts only (timing-only runs at paper scale)

#include <cstdint>
#include <vector>

namespace mpipe::moe {

/// A contiguous run of rows in a receive buffer: [offset, offset + count).
struct RowSpan {
  std::int64_t offset = 0;
  std::int64_t count = 0;

  bool operator==(const RowSpan&) const = default;
};

/// Routing of one source device within one partition.
struct DeviceRouting {
  /// Absolute row ids of this device's chunk, stably sorted by global
  /// expert id (so destination blocks are contiguous, rank-ordered).
  std::vector<std::int64_t> order;
  /// Receive row of token order[i] in its destination's partition buffer
  /// (parallel to `order`; empty in synthetic plans).
  std::vector<std::int64_t> recv_row;
  /// Rows sent to each destination device.
  std::vector<std::int64_t> send_counts;
};

struct PartitionPlan {
  std::int64_t chunk_begin = 0;  ///< first row of this partition's chunk
  std::int64_t chunk_rows = 0;   ///< rows per device in this partition
  std::vector<DeviceRouting> src;       ///< [device]
  std::vector<std::int64_t> recv_rows;  ///< [device]
  /// Receive rows of each local expert, [device][local expert]; a span
  /// may be empty. Empty in synthetic plans.
  std::vector<std::vector<RowSpan>> expert_rows;
};

struct DispatchPlan {
  int num_devices = 0;
  int experts_per_device = 1;
  int n_partitions = 1;
  std::int64_t tokens_per_device = 0;
  bool synthetic = false;
  std::vector<PartitionPlan> parts;
  /// Largest receive-buffer row count over partitions and devices — the
  /// ring-slot capacity for T_DI / T_M / T_DO.
  std::int64_t max_recv_rows = 0;

  /// Rows of partition p (identical across devices by construction).
  const PartitionPlan& part(int p) const;
};

class Dispatcher {
 public:
  /// Exact plan. `expert_of[d][t]` is the global expert chosen for token t
  /// of device d; all devices hold the same number of tokens.
  static DispatchPlan build(
      const std::vector<std::vector<std::int64_t>>& expert_of,
      int num_devices, int experts_per_device, int n_partitions);

  /// Balanced plan with counts only (no row indices) for timing-only
  /// execution at paper scale. `skew` in [0,1) shifts extra load onto
  /// device 0 (hot-expert imbalance): its receive rows grow by the factor
  /// (1 + skew*(P-1)) while the others shrink accordingly.
  static DispatchPlan synthetic(std::int64_t tokens_per_device,
                                int num_devices, int experts_per_device,
                                int n_partitions, double skew = 0.0);

  /// Splits `total` rows into `n` near-equal chunks (remainder spread over
  /// the leading chunks); returns chunk sizes.
  static std::vector<std::int64_t> chunk_sizes(std::int64_t total, int n);
};

}  // namespace mpipe::moe
