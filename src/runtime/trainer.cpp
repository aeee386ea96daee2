#include "runtime/trainer.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "runtime/checkpoint.h"
#include "tensor/ops.h"

namespace mpipe::runtime {

namespace {

/// Step-level replays of a TransientError that escaped the comm-level
/// retry, before escalating to rollback/abort.
constexpr int kMaxStepRetries = 2;

void write_json(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  if (!out || !(out << json)) {
    MPIPE_LOG_WARN << "failed to write trace " << path;
  }
}

}  // namespace

Trainer::Trainer(core::MoELayer& layer, TrainerOptions options)
    : layer_(&layer),
      options_(options),
      workload_(options.workload),
      warmup_(options.profile_warmup_steps) {
  MPIPE_EXPECTS(options_.workload.num_devices == layer.num_devices(),
                "workload/device mismatch");
  MPIPE_EXPECTS(options_.workload.d_model == layer.options().d_model,
                "workload/model dimension mismatch");
  MPIPE_EXPECTS(!options_.load_calibration,
                "TrainerOptions::load_calibration: the committed-CSV cost "
                "model calibration was removed; the cost model is analytic, "
                "corrected online by profile_warmup_steps");
  const auto& ft = options_.fault_tolerance;
  MPIPE_EXPECTS(ft.checkpoint_interval >= 0, "negative checkpoint interval");
  MPIPE_EXPECTS(ft.rollback_after >= 1, "rollback_after must be >= 1");
  MPIPE_EXPECTS(ft.max_rollbacks >= 0, "negative rollback budget");
  optimizer_ = std::make_unique<Adam>(layer.parameters(), layer.gradients(),
                                      options_.adam);
}

double Trainer::train_step_impl(bool guard, bool& non_finite) {
  non_finite = false;
  // The override is taken at step entry (not at Trainer construction) and
  // restored on every exit — return or throw — so a user toggle between
  // steps survives, and a caller that stops short of the warmup (or a step
  // that throws into a replay) never leaves warmup profiling stuck on.
  const auto restore_switches = warmup_.profile_step(
      *layer_, layer_->options().profile_execution,
      /*trace_last=*/!options_.trace_path.empty());

  layer_->zero_grad();
  auto batch = workload_.next_batch();
  auto targets = workload_.targets_for(batch);
  auto outputs = layer_->forward(batch);

  double loss = 0.0;
  std::vector<Tensor> grads;
  grads.reserve(outputs.size());
  for (std::size_t d = 0; d < outputs.size(); ++d) {
    loss += mse_loss(outputs[d], targets[d]);
    grads.push_back(mse_loss_grad(outputs[d], targets[d]));
  }
  loss /= static_cast<double>(outputs.size());

  if (guard && !std::isfinite(loss)) {
    // Rung 1: poisoned forward. The step is abandoned before backward —
    // no optimizer state, metrics, or step count moved.
    non_finite = true;
    return loss;
  }

  layer_->backward(grads);

  if (guard) {
    for (Tensor* g : layer_->gradients()) {
      if (!all_finite(*g)) {
        non_finite = true;
        return loss;
      }
    }
  }

  optimizer_->step();
  // The optimizer wrote new fp32 masters; a non-f32 layer's compute path
  // reads the quantized caches, which are stale until re-quantized.
  layer_->refresh_quantized_weights();
  const core::StepReport& report = layer_->last_report();
  metrics_.record_step(loss, report);
  metrics_.recovery().straggler_flags += report.stragglers.size();
  ++steps_run_;

  // After the last warmup step the layer holds the fitted factors and has
  // flushed its searcher, so the very next step re-ranks granularity and
  // strategy with reality-corrected costs.
  if (warmup_.observe(*layer_, report) && !options_.trace_path.empty()) {
    write_json(options_.trace_path + ".fwd.json", report.forward_trace_json);
    write_json(options_.trace_path + ".bwd.json", report.backward_trace_json);
  }
  return loss;
}

double Trainer::train_step() {
  const auto& ft = options_.fault_tolerance;
  for (;;) {
    maybe_take_checkpoint();
    // Snapshot the workload stream so a replayed step consumes the exact
    // same batch — the invariant behind the bitwise chaos tests.
    const Rng rng_snapshot = workload_.rng();
    const std::int64_t tokens_snapshot = workload_.last_batch_tokens();

    bool rolled_back = false;
    bool non_finite = false;
    double loss = 0.0;
    int attempts = 0;
    for (;;) {
      try {
        loss = train_step_impl(ft.numerics_guard, non_finite);
        break;
      } catch (const TransientError& e) {
        // A transient that exhausted the comm-level retry budget. Replay
        // the whole step from the snapshot; escalate to rollback (and
        // then abort) when step-level replays are exhausted too.
        sync_injector_stats();
        workload_.set_rng(rng_snapshot);
        workload_.set_last_batch_tokens(tokens_snapshot);
        ++metrics_.recovery().transient_step_retries;
        if (++attempts > kMaxStepRetries) {
          if (!roll_back()) {
            abort_with_diagnostics(
                std::string("transient step retries exhausted: ") + e.what());
          }
          rolled_back = true;
          break;
        }
      }
      // CheckError / OutOfMemoryError propagate: invariant violations and
      // exhausted memory are fatal at step level by design.
    }
    sync_injector_stats();
    if (rolled_back) continue;  // replay from the restored checkpoint

    if (!non_finite) {
      consecutive_non_finite_ = 0;
      return loss;
    }
    ++metrics_.recovery().non_finite_steps;
    ++metrics_.recovery().optimizer_steps_skipped;
    ++consecutive_non_finite_;
    if (consecutive_non_finite_ >= ft.rollback_after) {
      if (!roll_back()) {
        abort_with_diagnostics(
            "non-finite steps persisted with no checkpoint to roll back to");
      }
      continue;  // replay from the restored checkpoint
    }
    return loss;  // rung 1 only: optimizer update skipped, batch consumed
  }
}

void Trainer::maybe_take_checkpoint() {
  const int interval = options_.fault_tolerance.checkpoint_interval;
  if (interval <= 0) return;
  if (steps_run_ % interval != 0) return;
  // A rollback lands exactly on a checkpointed step; don't re-snapshot it.
  if (last_checkpoint_step_ == steps_run_) return;
  auto_checkpoint_ = checkpoint_bytes();
  checkpoint_metrics_steps_ = metrics_.steps();
  last_checkpoint_step_ = steps_run_;
  ++metrics_.recovery().checkpoints_taken;
}

bool Trainer::roll_back() {
  if (auto_checkpoint_.empty()) return false;
  if (rollbacks_done_ >= options_.fault_tolerance.max_rollbacks) {
    abort_with_diagnostics("rollback budget exhausted");
  }
  restore_from_bytes(auto_checkpoint_);
  metrics_.truncate_steps(checkpoint_metrics_steps_);
  last_checkpoint_step_ = steps_run_;
  ++rollbacks_done_;
  ++metrics_.recovery().rollbacks;
  return true;
}

void Trainer::abort_with_diagnostics(const std::string& reason) {
  const RecoveryCounters& r = metrics_.recovery();
  std::ostringstream os;
  os << "fault-tolerant trainer aborting: " << reason << " [step "
     << steps_run_ << ", step retries " << r.transient_step_retries
     << ", non-finite " << r.non_finite_steps << ", skipped updates "
     << r.optimizer_steps_skipped << ", rollbacks " << r.rollbacks
     << "; injected: comm " << r.injected.comm_failures << " (retries "
     << r.injected.comm_retries << ", gave up " << r.injected.comm_gave_up
     << "), stragglers " << r.injected.stragglers << ", alloc "
     << r.injected.alloc_failures << ", corruptions "
     << r.injected.corruptions << " (detected "
     << r.injected.corruptions_detected << ")]";
  throw CheckError(os.str());
}

void Trainer::sync_injector_stats() {
  const FaultInjector* injector = layer_->cluster().fault_injector();
  if (injector == nullptr) return;
  metrics_.recovery().injected = injector->stats();
}

std::vector<std::uint8_t> Trainer::checkpoint_bytes() {
  TrainerCheckpointState st;
  st.steps_run = steps_run_;
  st.warmup = warmup_.state();
  st.corrections = layer_->corrections();
  st.searcher = layer_->searcher().export_state();
  return encode_checkpoint(*layer_, *optimizer_, workload_, st);
}

void Trainer::restore_from_bytes(const std::vector<std::uint8_t>& bytes) {
  const TrainerCheckpointState st =
      apply_checkpoint(bytes, *layer_, *optimizer_, workload_);
  steps_run_ = static_cast<int>(st.steps_run);
  warmup_.set_state(st.warmup);
  // Corrections first: installing them flushes the searcher's cache, which
  // the imported state then repopulates.
  layer_->set_corrections(st.corrections);
  layer_->searcher().import_state(st.searcher);
  // Restored fp32 masters invalidate any quantized weight caches.
  layer_->refresh_quantized_weights();
  consecutive_non_finite_ = 0;
}

void Trainer::save_checkpoint(const std::string& path) {
  write_checkpoint_file(path, checkpoint_bytes());
}

void Trainer::restore_checkpoint(const std::string& path) {
  restore_from_bytes(read_checkpoint_file(path));
}

const TrainingMetrics& Trainer::run() {
  for (int i = 0; i < options_.steps; ++i) {
    train_step();
  }
  return metrics_;
}

}  // namespace mpipe::runtime
