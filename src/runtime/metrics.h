#pragma once
/// \file metrics.h
/// Per-run metric aggregation: step times, losses, memory peaks — the raw
/// material of every bench table.

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/stats.h"
#include "core/step_report.h"

namespace mpipe::runtime {

/// Every recovery action the fault-tolerant runtime took, plus a copy of
/// the injector's fault totals — so a run can be audited: "N faults were
/// injected, M retries and K rollbacks erased them". Never truncated by a
/// rollback (the history of recovery actions is itself the diagnostic).
struct RecoveryCounters {
  // Trainer-side actions (the degradation ladder).
  std::uint64_t transient_step_retries = 0;  ///< steps replayed in place
  std::uint64_t non_finite_steps = 0;        ///< numerics-guard trips
  std::uint64_t optimizer_steps_skipped = 0; ///< ladder rung 1
  std::uint64_t rollbacks = 0;               ///< ladder rung 2
  std::uint64_t checkpoints_taken = 0;       ///< in-memory auto-checkpoints
  std::uint64_t straggler_flags = 0;         ///< watchdog flags on committed steps
  /// The cluster injector's totals (FaultInjector::stats) at the last sync.
  FaultStats injected;

  bool any_recovery() const {
    return transient_step_retries + non_finite_steps +
               optimizer_steps_skipped + rollbacks !=
           0;
  }
};

class TrainingMetrics {
 public:
  void record_step(double loss, const core::StepReport& report);

  std::size_t steps() const { return losses_.size(); }
  const std::vector<double>& losses() const { return losses_; }
  double first_loss() const;
  double last_loss() const;
  /// Mean simulated step time over the recorded steps, optionally dropping
  /// the first `warmup` (the paper reports averaged training time).
  double mean_step_seconds(std::size_t warmup = 0) const;
  std::uint64_t peak_memory_bytes() const { return peak_memory_; }
  double mean_gpu_utilization() const;

  /// Measured wall-clock makespans of the steps that ran profiled (empty
  /// when profiling never ran) — the measured half of the
  /// measured-vs-modeled pair mean_step_seconds() models.
  const std::vector<double>& measured_step_seconds() const {
    return measured_step_seconds_;
  }
  double mean_measured_step_seconds() const;

  std::string summary() const;

  RecoveryCounters& recovery() { return recovery_; }
  const RecoveryCounters& recovery() const { return recovery_; }

  /// Drops every per-step record after the first `n` committed steps — the
  /// metrics half of a checkpoint rollback, so replayed steps are not
  /// double-counted. Recovery counters, the memory peak, and measured
  /// wall-clock makespans are deliberately kept: they are run history
  /// (what actually happened on this machine), not step state.
  void truncate_steps(std::size_t n);

 private:
  std::vector<double> losses_;
  std::vector<double> step_seconds_;
  std::vector<double> measured_step_seconds_;
  std::vector<double> utilizations_;
  std::uint64_t peak_memory_ = 0;
  RecoveryCounters recovery_;
};

}  // namespace mpipe::runtime
