#pragma once
/// \file trainer.h
/// End-to-end MoE training loop on the simulated cluster: workload →
/// forward → MSE loss → backward → Adam. Drives the full numeric path the
/// tests verify (loss decreases, restore strategies are gradient-exact).
///
/// Every step runs inside a degradation ladder: transient comm failures
/// are replayed in place (the workload RNG is snapshotted per step, so a
/// replay consumes the same batch), non-finite losses/gradients skip the
/// optimizer update, repeated non-finite steps roll back to the last
/// in-memory checkpoint, and an exhausted rollback budget aborts with a
/// diagnostic counter summary. With every knob off and no injector
/// installed, no rung can fire, so the ladder costs one RNG snapshot per
/// step and fault-free training is bitwise identical to an unguarded
/// step.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/moe_layer.h"
#include "runtime/adam.h"
#include "runtime/metrics.h"
#include "runtime/workload.h"

namespace mpipe::runtime {

/// Knobs for the recovery ladder. All off (the default) with no fault
/// injector on the cluster, the ladder never acts.
struct FaultToleranceOptions {
  /// Scan loss and gradients for NaN/Inf after backward; a non-finite step
  /// skips the optimizer update (ladder rung 1).
  bool numerics_guard = false;
  /// Take an in-memory checkpoint every N committed steps (0 disables; an
  /// initial checkpoint is taken before step 0 so rung 2 always has a
  /// target). Checkpoints use the same framed image as save_checkpoint().
  int checkpoint_interval = 0;
  /// Consecutive non-finite steps tolerated (as skipped updates) before
  /// rolling back to the last checkpoint (ladder rung 2).
  int rollback_after = 2;
  /// Rollbacks allowed per run before aborting (ladder rung 3).
  int max_rollbacks = 4;
};

struct TrainerOptions {
  WorkloadOptions workload;
  AdamOptions adam;
  int steps = 10;
  /// Retired: the offline CSV calibration is gone and the cost model is
  /// the analytic one plus the online warmup below. Kept only so existing
  /// callers that set it false still compile; true throws CheckError.
  bool load_calibration = false;
  /// Online measured-vs-modeled loop: profile the wall clock of the first
  /// N steps (per-op timestamps, see sim/profile.h), fit per-op-class
  /// correction factors (measured / modeled seconds for compute, comm and
  /// memcpy ops) and install them into the layer, whose corrected probes
  /// re-rank n and the strategy for every later step (Eq-10 is the
  /// paper's analytic model, not consulted). 0 disables; the layer's own
  /// profile_execution option is restored after the warmup.
  int profile_warmup_steps = 0;
  /// When non-empty and warmup profiling ran, the last warmup step's
  /// measured-vs-simulated chrome traces are written to
  /// <trace_path>.fwd.json / <trace_path>.bwd.json (chrome://tracing).
  std::string trace_path;
  FaultToleranceOptions fault_tolerance;
};

class Trainer {
 public:
  /// The layer must be in full execution mode.
  Trainer(core::MoELayer& layer, TrainerOptions options);

  /// Runs one training step through the recovery ladder (see file
  /// comment); returns the MSE loss before the update.
  double train_step();

  /// Runs options.steps steps.
  const TrainingMetrics& run();

  const TrainingMetrics& metrics() const { return metrics_; }

  /// The layer's per-op-class correction factors: the warmup's fit once
  /// it completes (identity until then for a fresh layer).
  const sim::OpClassCorrections& corrections() const {
    return layer_->corrections();
  }

  /// True once the warmup fit ran and the layer re-ranks with it.
  bool corrections_installed() const { return warmup_.installed(); }

  /// Serializes the full training state (weights, Adam, workload RNG,
  /// correction + searcher state) into one framed, checksummed image — see
  /// runtime/checkpoint.h for the format.
  std::vector<std::uint8_t> checkpoint_bytes();
  /// All-or-nothing restore of a checkpoint_bytes() image; a fresh Trainer
  /// restored from step-k bytes resumes bitwise identically to the run
  /// that produced them. Throws CheckError on a corrupt or mismatched
  /// image, leaving state untouched.
  void restore_from_bytes(const std::vector<std::uint8_t>& bytes);
  void save_checkpoint(const std::string& path);
  void restore_checkpoint(const std::string& path);

  int steps_run() const { return steps_run_; }

 private:
  /// One attempt at the step body; with `guard` set, scans the loss after
  /// forward and the gradients after backward, and on a non-finite value
  /// sets `non_finite` and returns without touching optimizer state or
  /// metrics. Exception-safe w.r.t. the warmup profiling overrides.
  double train_step_impl(bool guard, bool& non_finite);
  void maybe_take_checkpoint();
  /// Rung 2: restore the last in-memory checkpoint and truncate metrics to
  /// it. False when no checkpoint exists; escalates to
  /// abort_with_diagnostics when the rollback budget is spent.
  bool roll_back();
  [[noreturn]] void abort_with_diagnostics(const std::string& reason);
  /// Mirrors the cluster injector's fault totals into metrics().recovery().
  void sync_injector_stats();

  core::MoELayer* layer_;
  TrainerOptions options_;
  WorkloadGenerator workload_;
  std::unique_ptr<Adam> optimizer_;
  TrainingMetrics metrics_;
  core::CorrectionWarmup warmup_;
  int steps_run_ = 0;
  // Recovery ladder state.
  std::vector<std::uint8_t> auto_checkpoint_;
  std::size_t checkpoint_metrics_steps_ = 0;
  int last_checkpoint_step_ = -1;
  int consecutive_non_finite_ = 0;
  int rollbacks_done_ = 0;
};

}  // namespace mpipe::runtime
