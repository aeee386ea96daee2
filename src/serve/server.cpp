#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/check.h"

namespace mpipe::serve {

Server::Server(core::MoELayer& layer, ServerOptions options)
    : layer_(&layer),
      options_(options),
      batcher_(queue_, /*max_batch_tokens=*/0),
      selector_(layer, options.slo),
      warmup_(options.profile_warmup_batches) {
  selector_.plan();
  batcher_.set_max_batch_tokens(selector_.last_plan().max_batch_tokens);
}

const ServeMetrics& Server::run(std::vector<ServeRequest> trace) {
  const std::size_t target = metrics_.requests_served() + trace.size();
  for (ServeRequest& r : trace) queue_.push(std::move(r));
  return drain(target);
}

const ServeMetrics& Server::drain(std::size_t expected_requests) {
  while (metrics_.requests_served() < expected_requests) {
    MicroBatch mb = batcher_.next(clock_);
    if (mb.requests.empty()) {
      const double next = queue_.next_arrival();
      if (next > clock_ && std::isfinite(next)) {
        clock_ = next;  // idle: jump the virtual clock to the next arrival
        continue;
      }
      // Queue empty — a concurrent producer may still be stamping
      // requests; yield the core instead of spinning hot.
      std::this_thread::yield();
      continue;
    }
    execute_batch(std::move(mb));
  }
  return metrics_;
}

void Server::execute_batch(MicroBatch mb) {
  const int P = layer_->num_devices();
  const std::int64_t M = layer_->options().d_model;
  const std::int64_t T = mb.total_tokens;
  const std::int64_t bpd = (T + P - 1) / P;

  // Shard the coalesced batch across devices; the tail device(s) pad with
  // zero rows so every device presents the same (bpd, M) shape. Padding
  // rows route like real tokens (wasted work, the price of a rectangular
  // dispatch) but their output rows are never read back.
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    Tensor shard(Shape{bpd, M});
    const std::int64_t begin = std::min<std::int64_t>(T, d * bpd);
    const std::int64_t end = std::min<std::int64_t>(T, (d + 1) * bpd);
    if (end > begin) {
      shard.copy_into_rows(0, mb.coalesced.slice_rows(begin, end));
    }
    inputs.push_back(std::move(shard));
  }

  const int n = selector_.partitions_for(bpd);
  bool profiled = false;
  std::vector<Tensor> outs;
  double wall_seconds = 0.0;
  {
    // Restores the layer's own switch on every exit, including a
    // forward_only that throws.
    const auto restore_switches =
        warmup_.profile_step(*layer_, options_.profile_execution);
    profiled = layer_->options().profile_execution;
    const auto wall0 = std::chrono::steady_clock::now();
    outs = layer_->forward_only(inputs, n);
    wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();
  }
  const core::StepReport& report = layer_->last_report();

  // Virtual-clock accounting: the batch occupies the pipeline for its
  // simulated forward makespan (deterministic, replayable); the measured
  // wall-clock rides along in the batch record as the measured half of
  // the measured-vs-modeled pair.
  const double dispatch = clock_;
  const double completion = dispatch + report.forward_seconds;
  clock_ = completion;

  BatchRecord batch;
  batch.requests = static_cast<std::int64_t>(mb.requests.size());
  batch.tokens = T;
  batch.n_partitions = report.n_partitions;
  batch.dispatch_seconds = dispatch;
  batch.service_seconds = report.forward_seconds;
  batch.modeled_seconds = report.forward_seconds;
  batch.measured_seconds = profiled ? wall_seconds : 0.0;
  metrics_.record_batch(batch);

  for (std::size_t i = 0; i < mb.requests.size(); ++i) {
    RequestRecord r;
    r.id = mb.spans[i].id;
    r.tokens = mb.spans[i].rows;
    r.arrival_seconds = mb.requests[i].arrival_seconds;
    r.dispatch_seconds = dispatch;
    r.completion_seconds = completion;
    metrics_.record_request(r);
  }

  if (options_.keep_outputs) {
    // Undo the sharding: reassemble the (T, M) batch output, then slice
    // each request's rows back out by its span.
    Tensor full(Shape{T, M});
    for (int d = 0; d < P; ++d) {
      const std::int64_t begin = std::min<std::int64_t>(T, d * bpd);
      const std::int64_t end = std::min<std::int64_t>(T, (d + 1) * bpd);
      if (end > begin) {
        full.copy_into_rows(
            begin, outs[static_cast<std::size_t>(d)].slice_rows(
                       0, end - begin));
      }
    }
    for (const RequestSpan& span : mb.spans) {
      outputs_[span.id] =
          full.slice_rows(span.row_begin, span.row_begin + span.rows);
    }
  }

  if (warmup_.observe(*layer_, report)) {
    // Corrected probe timings can move the largest SLO-feasible rung:
    // re-plan and hand the batcher its new admission cap.
    selector_.plan();
    batcher_.set_max_batch_tokens(selector_.last_plan().max_batch_tokens);
  }
}

const Tensor& Server::output_for(std::int64_t request_id) const {
  const auto it = outputs_.find(request_id);
  MPIPE_EXPECTS(it != outputs_.end(),
                "no retained output for request " +
                    std::to_string(request_id) +
                    " (keep_outputs off, or not served yet)");
  return it->second;
}

}  // namespace mpipe::serve
