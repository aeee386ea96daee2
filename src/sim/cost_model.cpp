#include "sim/cost_model.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace mpipe::sim {

std::int64_t GemmEfficiencyCurve::min_rows() const {
  MPIPE_EXPECTS(!empty(), "empty efficiency curve");
  return rows.front();
}

std::int64_t GemmEfficiencyCurve::max_rows() const {
  MPIPE_EXPECTS(!empty(), "empty efficiency curve");
  return rows.back();
}

double GemmEfficiencyCurve::eval(std::int64_t r) const {
  MPIPE_EXPECTS(!empty(), "empty efficiency curve");
  if (r <= rows.front()) return efficiency.front();
  if (r >= rows.back()) return efficiency.back();
  const auto it = std::upper_bound(rows.begin(), rows.end(), r);
  const std::size_t hi = static_cast<std::size_t>(it - rows.begin());
  const std::size_t lo = hi - 1;
  const double t = static_cast<double>(r - rows[lo]) /
                   static_cast<double>(rows[hi] - rows[lo]);
  return efficiency[lo] + t * (efficiency[hi] - efficiency[lo]);
}

void GemmEfficiencyCurve::validate() const {
  MPIPE_EXPECTS(rows.size() == efficiency.size(),
                "efficiency curve: rows/efficiency length mismatch");
  MPIPE_EXPECTS(rows.size() >= 2,
                "efficiency curve needs at least two knots");
  MPIPE_EXPECTS(rows.front() >= 1, "efficiency curve rows must be >= 1");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    MPIPE_EXPECTS(efficiency[i] > 0.0 && efficiency[i] <= 1.0,
                  "efficiency curve values must be in (0, 1]");
    if (i == 0) continue;
    MPIPE_EXPECTS(rows[i] > rows[i - 1],
                  "efficiency curve rows must be strictly ascending");
    // rows/eff non-decreasing at the knots <=> predicted GEMM seconds
    // (flops proportional to rows) monotone everywhere on the curve. The
    // tolerance absorbs text round-trips of fitted knots, nothing more.
    MPIPE_EXPECTS(
        efficiency[i] * static_cast<double>(rows[i - 1]) <=
            efficiency[i - 1] * static_cast<double>(rows[i]) * (1 + 1e-9),
        "efficiency curve grows superlinearly between knots " +
            std::to_string(rows[i - 1]) + " and " + std::to_string(rows[i]) +
            " — predicted GEMM time would shrink with more rows");
  }
}

void GemmEfficiencyCurve::validate_covers(std::int64_t lo,
                                          std::int64_t hi) const {
  MPIPE_EXPECTS(lo >= 1 && hi >= lo, "bad required row range");
  MPIPE_EXPECTS(!empty(),
                "no calibrated GEMM efficiency curve loaded, but a measured "
                "curve covering rows [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "] is required");
  MPIPE_EXPECTS(
      min_rows() <= lo && max_rows() >= hi,
      "calibrated GEMM efficiency curve covers rows [" +
          std::to_string(min_rows()) + ", " + std::to_string(max_rows()) +
          "] but the granularity search will probe rows [" +
          std::to_string(lo) + ", " + std::to_string(hi) +
          "] — re-run bench/calibrate_cost_model with a wider row sweep");
}

std::uint64_t CommBandwidthCurve::min_bytes() const {
  MPIPE_EXPECTS(!empty(), "empty comm bandwidth curve");
  return bytes.front();
}

std::uint64_t CommBandwidthCurve::max_bytes() const {
  MPIPE_EXPECTS(!empty(), "empty comm bandwidth curve");
  return bytes.back();
}

double CommBandwidthCurve::eval(std::uint64_t b) const {
  MPIPE_EXPECTS(!empty(), "empty comm bandwidth curve");
  if (b <= bytes.front()) return seconds.front();
  if (b >= bytes.back()) return seconds.back();
  const auto it = std::upper_bound(bytes.begin(), bytes.end(), b);
  const std::size_t hi = static_cast<std::size_t>(it - bytes.begin());
  const std::size_t lo = hi - 1;
  const double t = static_cast<double>(b - bytes[lo]) /
                   static_cast<double>(bytes[hi] - bytes[lo]);
  return seconds[lo] + t * (seconds[hi] - seconds[lo]);
}

double CommBandwidthCurve::peak_rate() const {
  MPIPE_EXPECTS(!empty(), "empty comm bandwidth curve");
  double peak = 0.0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    peak = std::max(peak, static_cast<double>(bytes[i]) / seconds[i]);
  }
  return peak;
}

double CommBandwidthCurve::efficiency_at(std::uint64_t b) const {
  return efficiency_at(b, peak_rate());
}

double CommBandwidthCurve::efficiency_at(std::uint64_t b, double peak) const {
  // Clamp to the knot span: a payload below the sweep uses the front
  // knot's efficiency, one above extrapolates at the back knot's average
  // rate — both keep predicted seconds monotone in bytes. Either way the
  // prediction is extrapolation, not measurement, so record the event.
  if (b < min_bytes()) {
    clamps->below.fetch_add(1, std::memory_order_relaxed);
  } else if (b > max_bytes()) {
    clamps->above.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t bc = std::min(std::max(b, min_bytes()), max_bytes());
  const double rate = static_cast<double>(bc) / eval(bc);
  return std::min(1.0, rate / peak);
}

void CommBandwidthCurve::validate() const {
  MPIPE_EXPECTS(bytes.size() == seconds.size(),
                "comm curve: bytes/seconds length mismatch");
  MPIPE_EXPECTS(bytes.size() >= 2, "comm curve needs at least two knots");
  MPIPE_EXPECTS(bytes.front() >= 1, "comm curve payloads must be >= 1 byte");
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    MPIPE_EXPECTS(seconds[i] > 0.0, "comm curve seconds must be positive");
    if (i == 0) continue;
    MPIPE_EXPECTS(bytes[i] > bytes[i - 1],
                  "comm curve payloads must be strictly ascending");
    MPIPE_EXPECTS(
        seconds[i] >= seconds[i - 1] * (1 - 1e-9),
        "comm curve seconds shrink between payloads " +
            std::to_string(bytes[i - 1]) + " and " +
            std::to_string(bytes[i]) +
            " — a bigger exchange would predict faster");
  }
}

void CommBandwidthCurve::validate_covers(std::uint64_t lo,
                                         std::uint64_t hi) const {
  MPIPE_EXPECTS(lo >= 1 && hi >= lo, "bad required payload range");
  MPIPE_EXPECTS(!empty(),
                "no calibrated comm bandwidth curve loaded, but a measured "
                "curve covering payloads [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "] bytes is required");
  MPIPE_EXPECTS(
      min_bytes() <= lo && max_bytes() >= hi,
      "calibrated comm bandwidth curve covers payloads [" +
          std::to_string(min_bytes()) + ", " + std::to_string(max_bytes()) +
          "] bytes but the granularity search will probe payloads [" +
          std::to_string(lo) + ", " + std::to_string(hi) +
          "] — re-run bench/calibrate_comm with a wider payload sweep");
}

CostModel::CostModel(CostModelConfig config, Topology topology)
    : config_(std::move(config)), topology_(std::move(topology)) {
  MPIPE_EXPECTS(config_.peak_flops > 0, "peak_flops must be positive");
  MPIPE_EXPECTS(config_.gemm_half_sat_rows > 0, "half_sat must be positive");
  MPIPE_EXPECTS(config_.gemm_max_efficiency > 0 &&
                    config_.gemm_max_efficiency <= 1.0,
                "efficiency bound must be in (0, 1]");
  if (!config_.gemm_curve.empty()) config_.gemm_curve.validate();
  if (!config_.comm_curve.empty()) {
    config_.comm_curve.validate();
    comm_peak_rate_ = config_.comm_curve.peak_rate();
  }
}

double CostModel::gemm_efficiency(std::int64_t rows) const {
  MPIPE_EXPECTS(rows > 0, "gemm with no rows");
  if (!config_.gemm_curve.empty()) return config_.gemm_curve.eval(rows);
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
  double bw = topology_.alltoall_bandwidth(group);
  const double payload =
      static_cast<double>(bytes_per_device) * (p - 1.0) / p;
  // A calibrated curve derates the link by the measured payload-dependent
  // efficiency (small exchanges never saturate it); the curve's shape is
  // measured on the calibration host, the scale stays the topology's.
  const CommBandwidthCurve& curve = config_.comm_curve;
  if (!curve.empty() && payload >= 1.0) {
    bw *= curve.efficiency_at(static_cast<std::uint64_t>(payload),
                              comm_peak_rate_);
  }
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
