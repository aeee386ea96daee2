#pragma once
/// \file server.h
/// The serving loop — runtime::Trainer's forward-only sibling. One Server
/// owns a request queue, a continuous batcher, an SLO-driven plan and the
/// per-request metrics, and drives MoELayer::forward_only over whatever
/// the open-arrival traffic delivers:
///
///   arrivals -> RequestQueue -> ContinuousBatcher -> shard over devices
///            -> forward_only(n from the SLO plan) -> per-request records
///
/// Time: the server runs a virtual clock in simulated seconds. A batch's
/// service time is the forward graph's simulated makespan, so latency
/// percentiles are deterministic and replayable. The fitted per-op-class
/// corrections refine *planning* (the SLO ladder's probe timings), not
/// the recorded timeline — the same division as the training tier, where
/// StepReport's simulated timings stay uncorrected as the model-error
/// baseline. Measured wall-clock per batch is kept in
/// BatchRecord::measured_seconds for the measured-vs-modeled diff.
///
/// The warmup is core::CorrectionWarmup, the same loop the Trainer runs:
/// the first `profile_warmup_batches` batches run profiled, their forward
/// diffs feed the fit, and the fitted factors are installed into the
/// layer — after which the SLO plan is recomputed, because corrected probe
/// timings can move the largest feasible rung.

#include <cstdint>
#include <map>
#include <vector>

#include "core/moe_layer.h"
#include "serve/batcher.h"
#include "serve/request_queue.h"
#include "serve/serve_metrics.h"
#include "serve/slo_policy.h"
#include "sim/profile.h"

namespace mpipe::serve {

struct ServerOptions {
  SloPolicyOptions slo;

  /// Profile the first N batches and fit per-op-class corrections from
  /// their forward diffs (then re-plan). 0 disables the warmup.
  int profile_warmup_batches = 0;

  /// Profile every batch (measured_seconds on each BatchRecord), not just
  /// the warmup.
  bool profile_execution = false;

  /// Install the committed calibration curves (core::install_calibration)
  /// over the upper half of the batch ladder before planning. Serving
  /// batches below the calibrated sweep then run clamped-to-front-knot —
  /// recorded in the curve's CommClampStats via calibration_status().
  bool load_calibration = false;

  /// Retain per-request output tensors (output_for). Tests only — a real
  /// deployment hands outputs to the transport and drops them.
  bool keep_outputs = false;
};

class Server {
 public:
  Server(core::MoELayer& layer, ServerOptions options);

  /// Producers push here (thread-safe); drain()/run() consume.
  RequestQueue& queue() { return queue_; }

  /// Closed loop: pushes a whole arrival-ordered trace and serves it to
  /// completion. Returns the accumulated metrics.
  const ServeMetrics& run(std::vector<ServeRequest> trace);

  /// Serves until `expected_requests` have completed in total (across the
  /// server's lifetime). On an empty queue it yields the core and polls
  /// again, so a concurrent producer can still be pushing — the TSAN tier
  /// drives this.
  const ServeMetrics& drain(std::size_t expected_requests);

  const ServeMetrics& metrics() const { return metrics_; }
  const ServePlan& plan() const { return selector_.last_plan(); }
  const sim::CalibrationStatus& calibration_status() const {
    return calibration_status_;
  }
  /// The layer's per-op-class correction factors (the warmup's fit once
  /// installed).
  const sim::OpClassCorrections& corrections() const {
    return layer_->corrections();
  }
  bool corrections_installed() const { return warmup_.installed(); }
  double clock_seconds() const { return clock_; }

  /// Output rows of a served request (keep_outputs only).
  const Tensor& output_for(std::int64_t request_id) const;

 private:
  void execute_batch(MicroBatch mb);

  core::MoELayer* layer_;
  ServerOptions options_;
  RequestQueue queue_;
  ContinuousBatcher batcher_;
  SloSelector selector_;
  ServeMetrics metrics_;
  sim::CalibrationStatus calibration_status_;
  core::CorrectionWarmup warmup_;
  double clock_ = 0.0;
  std::map<std::int64_t, Tensor> outputs_;
};

}  // namespace mpipe::serve
