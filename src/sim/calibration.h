#pragma once
/// \file calibration.h
/// Closes the sim-vs-reality loop for the compute side of the cost model:
/// fit a piecewise-linear GEMM efficiency curve from measured kernel
/// timings, persist it, and install it into a CostModelConfig with an
/// up-front coverage check against the row range the granularity search
/// will probe. bench/calibrate_cost_model is the measuring harness; the
/// fit/load/apply functions here are deterministic and unit-tested.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.h"

namespace mpipe::sim {

/// One timed GEMM run at a given activation-panel row count.
struct GemmSample {
  std::int64_t rows = 0;
  double seconds = 0.0;
  std::uint64_t flops = 0;
};

/// Fits a GemmEfficiencyCurve from measured samples. The best sample
/// defines the machine's achievable peak and maps to `max_efficiency`
/// (CostModelConfig::gemm_max_efficiency), so the curve stays on the same
/// scale as the analytic formula it replaces. Duplicate row counts keep
/// the fastest run; knots are clamped so rows/efficiency never decreases
/// (measured noise cannot make a bigger GEMM look faster end-to-end).
GemmEfficiencyCurve fit_efficiency_curve(std::vector<GemmSample> samples,
                                         double max_efficiency);

/// Writes the curve as two-column CSV ("rows,efficiency"), one knot per
/// line — the file bench/calibrate_cost_model emits.
void save_efficiency_curve(const std::string& path,
                           const GemmEfficiencyCurve& curve);

/// Reads a curve written by save_efficiency_curve and validates it.
GemmEfficiencyCurve load_efficiency_curve(const std::string& path);

/// Installs `curve` into `config`, validating structure and that the
/// knots cover [required_lo, required_hi] — the micro-batch row range the
/// granularity search will probe (see GranularitySearcher::row_range).
/// Throws CheckError with an actionable message otherwise.
CostModelConfig apply_calibration(CostModelConfig config,
                                  GemmEfficiencyCurve curve,
                                  std::int64_t required_lo,
                                  std::int64_t required_hi);

/// One timed AllToAll-equivalent exchange: `bytes` is the payload the
/// busiest participant sent, `seconds` the measured wall time.
struct CommSample {
  std::uint64_t bytes = 0;
  double seconds = 0.0;
};

/// Fits a CommBandwidthCurve from measured samples. Duplicate payloads
/// keep the fastest run; seconds are clamped non-decreasing (measured
/// noise cannot make a bigger exchange look faster end-to-end).
CommBandwidthCurve fit_comm_curve(std::vector<CommSample> samples);

/// Writes the curve as two-column CSV ("bytes,seconds"), one knot per
/// line — the file bench/calibrate_comm emits.
void save_comm_curve(const std::string& path,
                     const CommBandwidthCurve& curve);

/// Reads a curve written by save_comm_curve and validates it.
CommBandwidthCurve load_comm_curve(const std::string& path);

/// Installs `curve` into `config`, validating structure and that the
/// knots cover [required_lo, required_hi] — the AllToAll payload byte
/// range the granularity search will probe (see
/// GranularitySearcher::alltoall_payload_range). Throws CheckError with
/// an actionable message otherwise.
CostModelConfig apply_comm_calibration(CostModelConfig config,
                                       CommBandwidthCurve curve,
                                       std::uint64_t required_lo,
                                       std::uint64_t required_hi);

// ---- best-effort loading for entry points ----------------------------------

/// What try_apply_calibration_files did, per curve, in human-readable form
/// (examples and the trainer print `detail` so a silently-analytic cost
/// model is visible).
struct CalibrationStatus {
  bool gemm_loaded = false;
  bool comm_loaded = false;
  std::string detail;
  /// Clamp counters of the installed comm curve (null when comm_loaded is
  /// false). The pointer aliases the live curve's counters, so reading it
  /// *after* a run reports how often that run's payloads fell outside the
  /// measured sweep — the tiny-micro-batch serving case the coverage check
  /// cannot reject up front, because the executed batch mix is unknown at
  /// load time.
  std::shared_ptr<const CommClampStats> comm_clamps;
};

/// Directories searched for the committed CALIBRATION_*.csv files:
/// $MPIPE_CALIBRATION_DIR (when set), then ".", "..", "../.." — entry
/// points run from the repo root, the build tree, or build/examples.
std::vector<std::string> default_calibration_dirs();

/// Installs whichever of CALIBRATION_gemm.csv / CALIBRATION_alltoall.csv
/// can be found *and* covers the required probe ranges into `config`.
/// Graceful by design: a missing file or insufficient knot coverage (the
/// workload probes outside the calibrated sweep) skips that curve and
/// records why in the returned status — the analytic formulas stay in
/// effect. A file that exists but fails structural validation still
/// throws: a corrupt committed artifact should be loud. Pass
/// comm_required_hi = 0 to skip the comm curve (single-device groups
/// never consult it). One GEMM curve serves every compute dtype, and the
/// comm payload range is counted in the layer's wire bytes.
CalibrationStatus try_apply_calibration_files(
    CostModelConfig& config, std::int64_t gemm_required_lo,
    std::int64_t gemm_required_hi, std::uint64_t comm_required_lo,
    std::uint64_t comm_required_hi,
    const std::vector<std::string>& search_dirs = default_calibration_dirs());

}  // namespace mpipe::sim
