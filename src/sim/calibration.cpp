#include "sim/calibration.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace mpipe::sim {

namespace {

/// Shared two-column CSV round-trip for the calibration curves: integer
/// key column, double value column, exact-precision values. Both curve
/// kinds persist through these so format fixes cannot diverge.
template <typename K>
void save_two_column(const std::string& path, const char* header,
                     const std::vector<K>& keys,
                     const std::vector<double>& values) {
  std::ofstream out(path);
  MPIPE_CHECK(static_cast<bool>(out), "cannot open " + path + " for writing");
  out << header << "\n";
  out.precision(17);  // round-trips a double exactly
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out << keys[i] << "," << values[i] << "\n";
  }
  MPIPE_CHECK(static_cast<bool>(out), "write to " + path + " failed");
}

template <typename K>
void load_two_column(const std::string& path, const char* header,
                     std::vector<K>& keys, std::vector<double>& values) {
  std::ifstream in(path);
  MPIPE_CHECK(static_cast<bool>(in),
              "cannot open calibration file " + path);
  std::string line;
  MPIPE_CHECK(static_cast<bool>(std::getline(in, line)) &&
                  line.rfind(header, 0) == 0,
              path + ": expected '" + header + "' header");
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream cells(line);
    K key{};
    double value = 0.0;
    char comma = 0;
    MPIPE_CHECK(
        static_cast<bool>(cells >> key >> comma >> value) && comma == ',',
        path + ": malformed knot line '" + line + "'");
    keys.push_back(key);
    values.push_back(value);
  }
}

}  // namespace

GemmEfficiencyCurve fit_efficiency_curve(std::vector<GemmSample> samples,
                                         double max_efficiency) {
  MPIPE_EXPECTS(samples.size() >= 2, "need at least two measured samples");
  MPIPE_EXPECTS(max_efficiency > 0.0 && max_efficiency <= 1.0,
                "max_efficiency must be in (0, 1]");
  for (const GemmSample& s : samples) {
    MPIPE_EXPECTS(s.rows >= 1 && s.seconds > 0.0 && s.flops > 0,
                  "bad measured sample");
  }
  std::sort(samples.begin(), samples.end(),
            [](const GemmSample& a, const GemmSample& b) {
              if (a.rows != b.rows) return a.rows < b.rows;
              return a.seconds < b.seconds;
            });
  // Per row count, keep the fastest run (sorted first) — repeated timings
  // of one shape should tighten the curve, not average in outliers.
  std::vector<GemmSample> best;
  for (const GemmSample& s : samples) {
    if (best.empty() || best.back().rows != s.rows) best.push_back(s);
  }
  MPIPE_EXPECTS(best.size() >= 2, "need samples at two distinct row counts");

  double peak_rate = 0.0;
  for (const GemmSample& s : best) {
    peak_rate = std::max(peak_rate, static_cast<double>(s.flops) / s.seconds);
  }

  GemmEfficiencyCurve curve;
  for (const GemmSample& s : best) {
    const double rate = static_cast<double>(s.flops) / s.seconds;
    double eff = max_efficiency * rate / peak_rate;
    // Clamp so rows/eff stays non-decreasing: a bigger panel may be less
    // efficient, but never finish the proportionally larger FLOP count
    // sooner. (Equivalent to isotonic regression on predicted seconds.)
    if (!curve.rows.empty()) {
      const double cap = curve.efficiency.back() *
                         static_cast<double>(s.rows) /
                         static_cast<double>(curve.rows.back());
      eff = std::min(eff, cap);
    }
    curve.rows.push_back(s.rows);
    curve.efficiency.push_back(eff);
  }
  curve.validate();
  return curve;
}

void save_efficiency_curve(const std::string& path,
                           const GemmEfficiencyCurve& curve) {
  curve.validate();
  save_two_column(path, "rows,efficiency", curve.rows, curve.efficiency);
}

GemmEfficiencyCurve load_efficiency_curve(const std::string& path) {
  GemmEfficiencyCurve curve;
  load_two_column(path, "rows,efficiency", curve.rows, curve.efficiency);
  curve.validate();
  return curve;
}

CostModelConfig apply_calibration(CostModelConfig config,
                                  GemmEfficiencyCurve curve,
                                  std::int64_t required_lo,
                                  std::int64_t required_hi) {
  curve.validate();
  curve.validate_covers(required_lo, required_hi);
  config.gemm_curve = std::move(curve);
  return config;
}

CommBandwidthCurve fit_comm_curve(std::vector<CommSample> samples) {
  MPIPE_EXPECTS(samples.size() >= 2, "need at least two measured samples");
  for (const CommSample& s : samples) {
    MPIPE_EXPECTS(s.bytes >= 1 && s.seconds > 0.0, "bad measured sample");
  }
  std::sort(samples.begin(), samples.end(),
            [](const CommSample& a, const CommSample& b) {
              if (a.bytes != b.bytes) return a.bytes < b.bytes;
              return a.seconds < b.seconds;
            });
  // Per payload, keep the fastest run (sorted first) — repeated timings
  // of one size should tighten the curve, not average in outliers.
  std::vector<CommSample> best;
  for (const CommSample& s : samples) {
    if (best.empty() || best.back().bytes != s.bytes) best.push_back(s);
  }
  MPIPE_EXPECTS(best.size() >= 2, "need samples at two distinct payloads");

  CommBandwidthCurve curve;
  for (const CommSample& s : best) {
    // Clamp seconds non-decreasing: a strictly larger exchange never
    // genuinely finishes sooner, so an observed inversion is jitter.
    const double floor_s = curve.seconds.empty() ? 0.0 : curve.seconds.back();
    curve.bytes.push_back(s.bytes);
    curve.seconds.push_back(std::max(s.seconds, floor_s));
  }
  curve.validate();
  return curve;
}

void save_comm_curve(const std::string& path,
                     const CommBandwidthCurve& curve) {
  curve.validate();
  save_two_column(path, "bytes,seconds", curve.bytes, curve.seconds);
}

CommBandwidthCurve load_comm_curve(const std::string& path) {
  CommBandwidthCurve curve;
  load_two_column(path, "bytes,seconds", curve.bytes, curve.seconds);
  curve.validate();
  return curve;
}

CostModelConfig apply_comm_calibration(CostModelConfig config,
                                       CommBandwidthCurve curve,
                                       std::uint64_t required_lo,
                                       std::uint64_t required_hi) {
  curve.validate();
  curve.validate_covers(required_lo, required_hi);
  config.comm_curve = std::move(curve);
  return config;
}

namespace {

/// First directory in `dirs` holding a readable `name`, or "" when none.
std::string find_in_dirs(const std::vector<std::string>& dirs,
                         const std::string& name) {
  for (const std::string& dir : dirs) {
    const std::string path = dir + "/" + name;
    std::ifstream in(path);
    if (in.good()) return path;
  }
  return "";
}

}  // namespace

std::vector<std::string> default_calibration_dirs() {
  std::vector<std::string> dirs;
  if (const char* env = std::getenv("MPIPE_CALIBRATION_DIR")) {
    if (*env != '\0') dirs.emplace_back(env);
  }
  dirs.emplace_back(".");
  dirs.emplace_back("..");
  dirs.emplace_back("../..");
  return dirs;
}

CalibrationStatus try_apply_calibration_files(
    CostModelConfig& config, std::int64_t gemm_required_lo,
    std::int64_t gemm_required_hi, std::uint64_t comm_required_lo,
    std::uint64_t comm_required_hi,
    const std::vector<std::string>& search_dirs) {
  CalibrationStatus status;
  std::ostringstream detail;

  const std::string gemm_path =
      find_in_dirs(search_dirs, "CALIBRATION_gemm.csv");
  if (gemm_path.empty()) {
    detail << "gemm: CALIBRATION_gemm.csv not found, analytic curve in "
              "effect";
  } else {
    GemmEfficiencyCurve curve = load_efficiency_curve(gemm_path);
    if (curve.min_rows() <= gemm_required_lo &&
        curve.max_rows() >= gemm_required_hi) {
      config = apply_calibration(std::move(config), std::move(curve),
                                 gemm_required_lo, gemm_required_hi);
      status.gemm_loaded = true;
      detail << "gemm: calibrated from " << gemm_path;
    } else {
      detail << "gemm: " << gemm_path << " knots [" << curve.min_rows()
             << ", " << curve.max_rows()
             << "] do not cover probed rows [" << gemm_required_lo << ", "
             << gemm_required_hi << "], analytic curve in effect";
    }
  }

  detail << "; ";
  if (comm_required_hi == 0) {
    detail << "comm: not consulted (single-device group)";
    status.detail = detail.str();
    return status;
  }
  const std::string comm_path =
      find_in_dirs(search_dirs, "CALIBRATION_alltoall.csv");
  if (comm_path.empty()) {
    detail << "comm: CALIBRATION_alltoall.csv not found, analytic model in "
              "effect";
  } else {
    CommBandwidthCurve curve = load_comm_curve(comm_path);
    if (curve.min_bytes() <= comm_required_lo &&
        curve.max_bytes() >= comm_required_hi) {
      config = apply_comm_calibration(std::move(config), std::move(curve),
                                      comm_required_lo, comm_required_hi);
      status.comm_loaded = true;
      // Hand the caller the installed curve's clamp counters: config is
      // copied into the cluster, but the counters are shared, so this
      // pointer keeps reporting on the curve the run actually consults.
      status.comm_clamps = config.comm_curve.clamps;
      detail << "comm: calibrated from " << comm_path;
    } else {
      detail << "comm: " << comm_path << " knots [" << curve.min_bytes()
             << ", " << curve.max_bytes()
             << "] do not cover probed payloads [" << comm_required_lo
             << ", " << comm_required_hi
             << "], analytic model in effect";
    }
  }
  status.detail = detail.str();
  return status;
}

}  // namespace mpipe::sim
