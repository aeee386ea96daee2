#pragma once
/// \file cost_model.h
/// Converts operation descriptions (FLOPs, bytes, participants) into
/// base durations at full stream speed. Interference is applied later by
/// the timing engine; this model captures launch latency, link bandwidth
/// and the GEMM-efficiency curve (small micro-batches underutilise the
/// device — the effect behind Fig 2's utilisation track and the n-too-large
/// penalty in Fig 12).

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/topology.h"

namespace mpipe::sim {

/// Running tally of payloads that consulted a CommBandwidthCurve outside
/// its measured knot span and were clamped to an end knot. Below-range
/// clamps matter most: a serving workload batching a handful of tokens
/// produces AllToAll payloads smaller than anything the calibration sweep
/// measured, and before these counters existed that extrapolation was
/// silent (the value is still the front knot's efficiency — the counters
/// only make the event observable). Shared by every copy of the curve via
/// shared_ptr, so counts survive the config copies taken by CostModel and
/// Cluster; increments are relaxed atomics (hot path, order irrelevant).
struct CommClampStats {
  std::atomic<std::uint64_t> below{0};  ///< payload < front knot
  std::atomic<std::uint64_t> above{0};  ///< payload > back knot

  std::uint64_t total() const {
    return below.load(std::memory_order_relaxed) +
           above.load(std::memory_order_relaxed);
  }
};

/// Piecewise-linear measured GEMM efficiency, rows -> efficiency in
/// (0, 1]. Fitted from real kernel timings (see sim/calibration.h and
/// bench/calibrate_cost_model); an empty curve means "use the analytic
/// saturation formula". Knots must keep rows/efficiency non-decreasing so
/// predicted GEMM time never shrinks as the panel grows — fit functions
/// enforce this, validate() rejects hand-built curves that don't.
struct GemmEfficiencyCurve {
  std::vector<std::int64_t> rows;  ///< strictly ascending knot positions
  std::vector<double> efficiency;  ///< same length, each in (0, 1]

  bool empty() const { return rows.empty(); }
  std::int64_t min_rows() const;
  std::int64_t max_rows() const;

  /// Piecewise-linear interpolation, clamped to the end knots.
  double eval(std::int64_t r) const;

  /// Structural checks (ascending rows, efficiency range, monotone
  /// rows/efficiency ratio). Throws CheckError with a clear message.
  void validate() const;

  /// Throws CheckError unless the knots span [lo, hi] — call this at
  /// calibration-load time with the micro-batch row range the granularity
  /// search will probe, so a stale or truncated curve fails loudly
  /// instead of silently extrapolating.
  void validate_covers(std::int64_t lo, std::int64_t hi) const;
};

/// Piecewise-linear measured AllToAll exchange time, payload bytes (what
/// the busiest participant sends) -> seconds on the calibration host.
/// Fitted from real apply_segments exchanges (see sim/calibration.h and
/// bench/calibrate_comm); an empty curve means "use the analytic
/// latency + bandwidth formula". Knots must keep seconds non-decreasing
/// in bytes so a bigger exchange never predicts faster — fit functions
/// enforce this, validate() rejects hand-built curves that don't.
///
/// The curve is consulted as a *shape*, not an absolute time: the best
/// knot rate (bytes/seconds) defines the calibration host's achievable
/// peak, and alltoall_seconds scales the topology's link bandwidth by
/// efficiency_at(payload) = (payload / eval(payload)) / peak_rate — the
/// same scale-free treatment GemmEfficiencyCurve gets against peak_flops.
struct CommBandwidthCurve {
  std::vector<std::uint64_t> bytes;  ///< strictly ascending knot payloads
  std::vector<double> seconds;       ///< same length, positive, non-decreasing

  bool empty() const { return bytes.empty(); }
  std::uint64_t min_bytes() const;
  std::uint64_t max_bytes() const;

  /// Piecewise-linear interpolation of seconds, clamped to the end knots.
  double eval(std::uint64_t b) const;

  /// Best measured rate over the knots (bytes/s). The per-segment rate of
  /// a monotone piecewise-linear seconds curve peaks at a knot, so this is
  /// the curve-wide peak.
  double peak_rate() const;

  /// Achieved fraction of peak_rate() at `b`, in (0, 1]. Payloads outside
  /// the knot span clamp to the end knots' efficiency, which extrapolates
  /// predicted seconds linearly at the end-segment average rate — and
  /// count a clamp event in `clamps` so running off the measured sweep is
  /// observable (see CommClampStats). The two-arg form takes a precomputed
  /// peak_rate() so hot callers skip the per-call knot scan.
  double efficiency_at(std::uint64_t b) const;
  double efficiency_at(std::uint64_t b, double peak) const;

  /// Clamp-event counters, shared across copies of this curve (CostModel
  /// and Cluster copy their configs; the counts must not fork with them).
  std::shared_ptr<CommClampStats> clamps = std::make_shared<CommClampStats>();

  /// Structural checks (ascending bytes, positive non-decreasing seconds).
  /// Throws CheckError with a clear message.
  void validate() const;

  /// Throws CheckError unless the knots span [lo, hi] — call this at
  /// calibration-load time with the AllToAll payload range the granularity
  /// search will probe (GranularitySearcher::alltoall_payload_range), so a
  /// stale or truncated sweep fails loudly instead of silently
  /// extrapolating.
  void validate_covers(std::uint64_t lo, std::uint64_t hi) const;
};

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
  /// Measured GEMM efficiency curve; when non-empty it replaces the
  /// analytic eff(rows) formula above. Load via sim::apply_calibration so
  /// coverage of the probed row range is asserted up front.
  GemmEfficiencyCurve gemm_curve;
  /// Measured AllToAll bandwidth curve; when non-empty, alltoall_seconds
  /// scales the topology link bandwidth by its payload-dependent
  /// efficiency instead of assuming the link saturates at every size.
  /// Load via sim::apply_comm_calibration so coverage of the probed
  /// payload range is asserted up front.
  CommBandwidthCurve comm_curve;
};

class CostModel {
 public:
  CostModel(CostModelConfig config, Topology topology);

  /// GEMM efficiency in (0, 1] as a function of the M dimension (rows of
  /// the activation panel): the measured curve when one is loaded,
  /// otherwise the analytic formula.
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
  /// peak_rate() of the calibrated comm curve, computed once at
  /// construction (0 when no curve is loaded) — alltoall_seconds sits in
  /// the granularity search's trial loop.
  double comm_peak_rate_ = 0.0;
};

}  // namespace mpipe::sim
