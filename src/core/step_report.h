#pragma once
/// \file step_report.h
/// Step execution reports: simulated times, GPU utilisation and the memory
/// footprint snapshot every bench reads. MoELayer fills one per step; the
/// heavy lifting (functional + timed execution) lives in sim::Cluster.

#include <cstdint>
#include <string>
#include <vector>

#include "core/reuse_strategy.h"
#include "tensor/dtype.h"
#include "sim/profile.h"
#include "sim/timing_engine.h"

namespace mpipe::core {

/// Peak bytes by category (maximum over devices unless stated otherwise).
struct MemorySnapshot {
  std::uint64_t model_states = 0;
  std::uint64_t activations = 0;
  std::uint64_t temp_buffers = 0;
  std::uint64_t comm = 0;
  std::uint64_t total_peak = 0;  ///< peak of the concurrent total
};

struct StepReport {
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  int n_partitions = 1;
  ReuseStrategy strategy = ReuseStrategy::kNone;
  double mean_gpu_utilization = 0.0;  ///< efficiency-weighted, fwd+bwd
  MemorySnapshot memory;
  sim::TimingResult forward_timing;
  sim::TimingResult backward_timing;

  /// Measured wall-clock side, filled when the step ran with
  /// MoELayerOptions::profile_execution: the reconstructed timelines and
  /// the op-by-op simulated-vs-measured diffs. The chrome://tracing JSON
  /// dumps (measured + simulated tracks per device) are additionally
  /// gated on MoELayerOptions::trace_execution — inspection output only,
  /// so routine profiled steps skip the serialisation. Empty and
  /// cost-free when profiling is off.
  /// Wire/storage format the step ran with (MoELayerOptions::compute_dtype).
  DType compute_dtype = DType::kF32;
  /// Sum over every AllToAll in the step (fwd + bwd) of the bytes its
  /// busiest participant sent, in compute_dtype's wire format — the paper's
  /// Fig-10 payload axis. bf16 halves this vs fp32; int8 quarters it (plus
  /// one fp32 scale per row).
  std::uint64_t alltoall_payload_bytes = 0;
  /// Accounted bytes of the quantized expert-weight copies on the busiest
  /// device (0 for kF32, where the fp32 masters are the compute weights).
  std::uint64_t expert_weight_bytes = 0;

  bool profiled = false;
  sim::MeasuredTimeline forward_measured;
  sim::MeasuredTimeline backward_measured;
  sim::ScheduleDiff forward_diff;
  sim::ScheduleDiff backward_diff;
  std::string forward_trace_json;
  std::string backward_trace_json;

  /// Ops the watchdog flagged as stragglers (fwd + bwd), filled when the
  /// step was profiled and MoELayerOptions::straggler_threshold > 0. See
  /// sim::detect_stragglers for the normalization.
  std::vector<sim::StragglerFlag> stragglers;

  /// Simulated step time (the TimingEngine's makespans) — the "modeled"
  /// number of the measured-vs-modeled pair.
  double step_seconds() const { return forward_seconds + backward_seconds; }
  /// Measured step time (wall-clock makespans); 0 when not profiled.
  double measured_step_seconds() const {
    return forward_measured.makespan + backward_measured.makespan;
  }
  /// Per-op-class measured/modeled ratios over fwd+bwd — the model-error
  /// summary, in the same shape the correction loop installs.
  sim::OpClassCorrections model_error() const;
  /// One-line measured-vs-modeled summary for logs and examples.
  std::string model_error_summary() const;
};

}  // namespace mpipe::core
