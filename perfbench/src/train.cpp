/// The two training workloads. Untraced runs drive runtime::Trainer as a
/// user would; traced runs drive the same public calls in the same order
/// (zero_grad, next_batch/targets_for, forward, MSE loss, backward,
/// Adam::step, refresh_quantized_weights) with a span around each, on a
/// layer that also records per-op wall time (profile_execution), so the
/// step's wall clock splits into graph compute/comm/copy/host ops and the
/// host work outside the op graph.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/moe_layer.h"
#include "probes.h"
#include "runtime/adam.h"
#include "runtime/trainer.h"
#include "runtime/workload.h"
#include "tensor/ops.h"

namespace perfbench {

using namespace mpipe;

namespace {

constexpr int kDevices = 4;
constexpr int kExperts = 8;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 9;
/// The trained model's initialisation is fixed; --seed varies the data.
constexpr std::uint64_t kModelSeed = 42;

struct TrainWorkload {
  std::int64_t d_model = 0;
  std::int64_t d_hidden = 0;
  std::int64_t tokens_per_device = 0;
  double batch_jitter = 0.0;
  int num_partitions = 0;  ///< 0: Algorithm-1 search over the candidates
  DType dtype = DType::kF32;
  /// Steps run inside set-up (first-touch allocation, searcher cache).
  int warmup_steps = 0;
  /// Fixed window of steps after warm-up over which every modeled metric
  /// and every count is taken, so those repeat exactly for one seed however
  /// many steps the timed phase fits.
  int model_steps = 0;
  /// loss_final is the mean loss over the window's last `loss_tail` steps.
  int loss_tail = 0;
  /// Steps per throughput window (tokens_per_s is the windows' median).
  int window_steps = 0;
  /// Steps after warm-up a second set-up replays to check determinism.
  int replay_steps = 0;
};

// fp32, fixed n = 4, Eq-10 strategy: compute-bound partitioned schedule.
constexpr TrainWorkload kPipelined{128, 512, 512, 0.0, 4, DType::kF32,
                                   2, 40, 10, 8, 6};
// bf16, +-50% batch jitter, Algorithm-1 n and Eq-10 strategy: host-bound.
constexpr TrainWorkload kDynamicBf16{64, 256, 256, 0.5, 0, DType::kBF16,
                                     12, 150, 30, 40, 30};

core::MoELayerOptions layer_options(const TrainWorkload& w, bool profile) {
  core::MoELayerOptions o;
  o.d_model = w.d_model;
  o.d_hidden = w.d_hidden;
  o.num_experts = kExperts;
  o.pipeline = true;
  o.num_partitions = w.num_partitions;
  o.memory_reuse = true;  // strategy left unset: Eq-10 adaptive selector
  o.compute_dtype = w.dtype;
  o.parallel_execution = false;
  o.profile_execution = profile;
  o.seed = kModelSeed;
  return o;
}

runtime::TrainerOptions trainer_options(const TrainWorkload& w,
                                        std::uint64_t seed) {
  runtime::TrainerOptions t;
  t.workload.d_model = w.d_model;
  t.workload.tokens_per_device = w.tokens_per_device;
  t.workload.num_devices = kDevices;
  t.workload.batch_jitter = w.batch_jitter;
  t.workload.seed = seed;
  t.load_calibration = false;  // analytic cost model
  return t;
}

/// Per-step record of a run (warm-up steps included, first).
struct StepLog {
  std::vector<double> wall;  ///< seconds
  std::vector<double> tokens;
  std::vector<double> loss;
  std::vector<double> sim_seconds;
  std::vector<double> peak_bytes;
  int failed_steps = 0;
  double rss_mib = 0;  ///< process peak RSS when the model window completed
};

/// The user's view: Trainer::train_step.
struct PlainRig {
  sim::Cluster cluster;
  core::MoELayer layer;
  runtime::Trainer trainer;
  /// Replays the trainer's batch stream (same options, same seed) to count
  /// each step's tokens outside the timed span; Trainer keeps its own
  /// generator private.
  runtime::WorkloadGenerator shadow;

  PlainRig(const TrainWorkload& w, std::uint64_t seed)
      : cluster(sim::Cluster::dgx_a100_pod(1, kDevices)),
        layer(cluster, layer_options(w, /*profile=*/false)),
        trainer(layer, trainer_options(w, seed)),
        shadow(trainer_options(w, seed).workload) {}

  void step(const TrainWorkload& w, StepLog& log) {
    const auto t0 = Clock::now();
    const double loss = trainer.train_step();
    log.wall.push_back(seconds_since(t0));
    double tokens = static_cast<double>(w.tokens_per_device * kDevices);
    if (w.batch_jitter > 0.0) {
      shadow.next_batch();
      tokens = static_cast<double>(shadow.last_batch_tokens() * kDevices);
    }
    const core::StepReport& r = layer.last_report();
    log.tokens.push_back(tokens);
    log.loss.push_back(loss);
    log.sim_seconds.push_back(r.step_seconds());
    log.peak_bytes.push_back(static_cast<double>(r.memory.total_peak));
  }
};

/// Spans of one traced step, seconds, plus the per-op-class split of its
/// graph time and what the model said.
struct TracedStep {
  double zero_grad = 0, batch_gen = 0, forward = 0, loss_fn = 0, backward = 0,
         adam = 0, requant = 0, wall = 0;
  double compute_ops = 0, comm_ops = 0, memcpy_ops = 0, host_ops = 0;
  double measured_makespan = 0, simulated_makespan = 0;
  double payload_bytes = 0, staging_bytes = 0, tokens = 0;
  double pool_tasks = 0;  ///< shared-pool tasks enqueued during the step
  int n = 1;
  core::MemorySnapshot memory;
  double loss = 0;
};

/// The traced view: Trainer's step body spelled out call by call.
struct TracedRig {
  sim::Cluster cluster;
  core::MoELayer layer;
  runtime::WorkloadGenerator workload;
  runtime::Adam adam;

  TracedRig(const TrainWorkload& w, std::uint64_t seed)
      : cluster(sim::Cluster::dgx_a100_pod(1, kDevices)),
        layer(cluster, layer_options(w, /*profile=*/true)),
        workload(trainer_options(w, seed).workload),
        adam(layer.parameters(), layer.gradients(),
             trainer_options(w, seed).adam) {}

  TracedStep step() {
    TracedStep s;
    const std::uint64_t tasks0 = ThreadPool::shared().tasks_enqueued();
    const auto t_step = Clock::now();
    auto t = Clock::now();
    layer.zero_grad();
    s.zero_grad = seconds_since(t);

    t = Clock::now();
    std::vector<Tensor> batch = workload.next_batch();
    std::vector<Tensor> targets = workload.targets_for(batch);
    s.batch_gen = seconds_since(t);

    t = Clock::now();
    std::vector<Tensor> outputs = layer.forward(batch);
    s.forward = seconds_since(t);
    s.staging_bytes = static_cast<double>(layer.staging().bytes_stored());

    t = Clock::now();
    double loss = 0.0;
    std::vector<Tensor> grads;
    grads.reserve(outputs.size());
    for (std::size_t d = 0; d < outputs.size(); ++d) {
      loss += mse_loss(outputs[d], targets[d]);
      grads.push_back(mse_loss_grad(outputs[d], targets[d]));
    }
    loss /= static_cast<double>(outputs.size());
    s.loss_fn = seconds_since(t);

    t = Clock::now();
    layer.backward(grads);
    s.backward = seconds_since(t);

    t = Clock::now();
    adam.step();
    s.adam = seconds_since(t);

    t = Clock::now();
    layer.refresh_quantized_weights();
    s.requant = seconds_since(t);
    s.wall = seconds_since(t_step);
    s.pool_tasks =
        static_cast<double>(ThreadPool::shared().tasks_enqueued() - tasks0);

    const core::StepReport& r = layer.last_report();
    const auto cls = [&r](sim::OpClass c) {
      const auto i = static_cast<std::size_t>(c);
      return r.forward_diff.measured_class_seconds[i] +
             r.backward_diff.measured_class_seconds[i];
    };
    s.compute_ops = cls(sim::OpClass::kCompute);
    s.comm_ops = cls(sim::OpClass::kComm);
    s.memcpy_ops = cls(sim::OpClass::kMemcpy);
    s.host_ops = cls(sim::OpClass::kHost);
    s.measured_makespan = r.measured_step_seconds();
    s.simulated_makespan = r.step_seconds();
    s.payload_bytes = static_cast<double>(r.alltoall_payload_bytes);
    s.tokens = static_cast<double>(workload.last_batch_tokens() * kDevices);
    s.n = r.n_partitions;
    s.memory = r.memory;
    s.loss = loss;
    return s;
  }
};

/// Runs plain steps until `seconds` have passed and the log holds at
/// least `min_steps` steps. A throwing step ends the phase (the layer state
/// is suspect) and returns false.
bool run_plain(PlainRig& rig, const TrainWorkload& w, double seconds,
               std::size_t min_steps, StepLog& log, Result& result) {
  const std::size_t window_end =
      static_cast<std::size_t>(w.warmup_steps + w.model_steps);
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds || log.wall.size() < min_steps) {
    result.attempt(1);
    try {
      rig.step(w, log);
      if (log.wall.size() == window_end) log.rss_mib = peak_rss_mib();
    } catch (const std::exception& e) {
      ++log.failed_steps;
      result.fail(std::string("train_step threw: ") + e.what());
      return false;
    }
  }
  return true;
}

/// Set-up as a user pays it: construction plus the warm-up steps.
std::unique_ptr<PlainRig> set_up(const TrainWorkload& w, std::uint64_t seed,
                                 StepLog& log, std::vector<double>& seconds,
                                 Result& result) {
  const auto t0 = Clock::now();
  auto rig = std::make_unique<PlainRig>(w, seed);
  for (int i = 0; i < w.warmup_steps; ++i) {
    result.attempt(1);
    rig->step(w, log);
  }
  seconds.push_back(seconds_since(t0));
  return rig;
}

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

/// Output checks shared by both modes: finite losses, and the window's
/// final loss below the first loss.
void check_losses(const TrainWorkload& w, const StepLog& log, Result& result) {
  result.check(all_finite(log.loss), "every training loss is finite");
  const std::size_t end = static_cast<std::size_t>(w.warmup_steps +
                                                   w.model_steps);
  if (!result.check(log.loss.size() >= end, "model window completed")) return;
  result.check(mean({log.loss.begin() + static_cast<std::ptrdiff_t>(end) -
                         w.loss_tail,
                     log.loss.begin() + static_cast<std::ptrdiff_t>(end)}) <
                   log.loss.front(),
               "final loss below the first loss");
}

template <typename T>
std::vector<T> window(const std::vector<T>& v, std::size_t begin,
                      std::size_t count) {
  begin = std::min(begin, v.size());
  count = std::min(count, v.size() - begin);
  return {v.begin() + static_cast<std::ptrdiff_t>(begin),
          v.begin() + static_cast<std::ptrdiff_t>(begin + count)};
}

void run_untraced(const TrainWorkload& w, const Args& args, Result& result) {
  const std::size_t window_end =
      static_cast<std::size_t>(w.warmup_steps + w.model_steps);
  std::vector<double> setup_seconds;
  StepLog log;
  std::unique_ptr<PlainRig> rig = set_up(w, args.seed, log, setup_seconds,
                                         result);
  // The timed phase opens with the model window (so host_rss_mib is read
  // after the same work on every run), then runs in slices with one more
  // set-up after each, so the set-up samples spread over the run like the
  // step samples do.
  const auto t0 = Clock::now();
  bool ok = run_plain(*rig, w, 0.0, window_end, log, result);
  const double slice_seconds =
      std::max(0.0, args.seconds - seconds_since(t0)) / (kSetupReps - 1);
  StepLog replay;
  const int slices = kSetupReps - 1;
  for (int slice = 0; slice < slices && ok; ++slice) {
    ok = run_plain(*rig, w, slice_seconds, 0, log, result);
    StepLog warm;
    auto other = set_up(w, args.seed, warm, setup_seconds, result);
    if (slice == slices - 1) {
      // Same seed, fresh set-up: must replay the loss sequence bitwise.
      replay = std::move(warm);
      for (int i = 0; i < w.replay_steps; ++i) {
        result.attempt(1);
        other->step(w, replay);
      }
    }
  }
  if (log.wall.size() < window_end) {
    result.fail("model window incomplete");
    return;
  }

  const std::size_t w0 = static_cast<std::size_t>(w.warmup_steps);
  const std::size_t timed = log.wall.size() - w0;
  const auto wall = window(log.wall, w0, timed);
  std::vector<double> wall_ms;
  for (double s : wall) wall_ms.push_back(s * 1e3);
  const auto sim = window(log.sim_seconds, w0,
                          static_cast<std::size_t>(w.model_steps));
  std::vector<double> sim_ms;
  for (double s : sim) sim_ms.push_back(s * 1e3);
  const auto peaks = window(log.peak_bytes, w0,
                            static_cast<std::size_t>(w.model_steps));

  result.set("tokens_per_s",
             windowed_rate(window(log.tokens, w0, timed), wall,
                           static_cast<std::size_t>(w.window_steps)));
  result.set("iter_ms_p50", quantile(wall_ms, 0.5));
  result.set("iter_ms_p90", quantile(wall_ms, 0.9));
  result.set("setup_s", median(setup_seconds));
  result.set("host_rss_mib", log.rss_mib);
  result.set("sim_step_ms", mean(sim_ms));
  result.set("peak_device_mib",
             *std::max_element(peaks.begin(), peaks.end()) / kMiB);
  // A training step is the unit of work here: its latency on the virtual
  // clock is the simulated fwd+bwd makespan.
  result.set("latency_ms_p50", quantile(sim_ms, 0.5));
  result.set("latency_ms_p99", quantile(sim_ms, 0.99));
  std::fprintf(stderr,
               "perfbench: %zu timed steps (%d warm-up), %zu-step model "
               "window; set-ups (s):",
               timed, w.warmup_steps, sim.size());
  for (double s : setup_seconds) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");

  check_losses(w, log, result);
  const bool same = replay.loss.size() <= log.loss.size() &&
                    std::equal(replay.loss.begin(), replay.loss.end(),
                               log.loss.begin());
  result.check(same, "same seed repeats the loss sequence bitwise");
}

/// Traced steps of one run, with the searcher's counters at the start and
/// the end of the model window.
struct TracedLog {
  std::vector<TracedStep> steps;
  core::SearchStats search_begin, search_end;
  int failed_steps = 0;
};

/// Runs traced steps until `seconds` have passed and the log holds at least
/// `min_steps` steps; false when a step threw.
bool run_traced_steps(TracedRig& rig, const TrainWorkload& w, double seconds,
                      std::size_t min_steps, TracedLog& log, Result& result) {
  const auto w0 = static_cast<std::size_t>(w.warmup_steps);
  const std::size_t window_end = w0 + static_cast<std::size_t>(w.model_steps);
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds || log.steps.size() < min_steps) {
    if (log.steps.size() == w0) log.search_begin = rig.layer.searcher().stats();
    result.attempt(1);
    try {
      log.steps.push_back(rig.step());
    } catch (const std::exception& e) {
      ++log.failed_steps;
      result.fail(std::string("traced step threw: ") + e.what());
      return false;
    }
    if (log.steps.size() == window_end) {
      log.search_end = rig.layer.searcher().stats();
    }
  }
  return true;
}

void run_traced(const TrainWorkload& w, const Args& args, Result& result) {
  const std::size_t w0 = static_cast<std::size_t>(w.warmup_steps);
  const std::size_t need = w0 + static_cast<std::size_t>(w.model_steps);
  // The untraced run (the base of the tracing overhead and the loss
  // sequence the traced calls must reproduce) and the traced run alternate
  // in slices, so a slow spell of the host lands on both alike.
  PlainRig plain_rig(w, args.seed);
  TracedRig rig(w, args.seed);
  StepLog plain;
  TracedLog traced;
  constexpr int kSlices = 8;
  bool ok = true;
  for (int slice = 0; slice < kSlices && ok; ++slice) {
    const double seconds = args.seconds / kSlices;
    ok = slice % 2 == 0
             ? run_plain(plain_rig, w, seconds, 0, plain, result)
             : run_traced_steps(rig, w, seconds, 0, traced, result);
  }
  if (ok && run_plain(plain_rig, w, 0.0, need, plain, result)) {
    run_traced_steps(rig, w, 0.0, need, traced, result);
  }
  check_losses(w, plain, result);
  const double untraced_rate = windowed_rate(
      window(plain.tokens, w0, plain.tokens.size()),
      window(plain.wall, w0, plain.wall.size()),
      static_cast<std::size_t>(w.window_steps));
  const std::vector<TracedStep>& steps = traced.steps;
  const core::SearchStats& search0 = traced.search_begin;
  const core::SearchStats& search1 = traced.search_end;
  result.set("runtime.steps_failed",
             plain.failed_steps + traced.failed_steps);
  if (!result.check(steps.size() >= need, "traced model window completed")) {
    return;
  }

  // Traced and untraced runs consume the same batches: same losses.
  const std::size_t common = std::min(steps.size(), plain.loss.size());
  bool same = true;
  for (std::size_t i = 0; i < common; ++i) {
    same = same && steps[i].loss == plain.loss[i];
  }
  result.check(same, "traced loss sequence equals the untraced one bitwise");

  std::vector<double> traced_tokens, traced_wall;
  for (std::size_t i = w0; i < steps.size(); ++i) {
    traced_tokens.push_back(steps[i].tokens);
    traced_wall.push_back(steps[i].wall);
  }
  const double traced_rate = windowed_rate(
      traced_tokens, traced_wall, static_cast<std::size_t>(w.window_steps));
  result.set("bench.trace_overhead", traced_rate / untraced_rate);

  // Every per-layer figure below is over the fixed window.
  const auto win = window(steps, w0, static_cast<std::size_t>(w.model_steps));
  const auto per_step = [&win](auto field) {
    double sum = 0.0;
    for (const TracedStep& s : win) sum += field(s);
    return sum / static_cast<double>(win.size());
  };
  const auto max_of = [&win](auto field) {
    double m = 0.0;
    for (const TracedStep& s : win) m = std::max(m, field(s));
    return m;
  };
  const std::pair<const char*, double TracedStep::*> mean_ms[] = {
      {"tensor.compute_ops_ms", &TracedStep::compute_ops},
      {"comm.alltoall_ops_ms", &TracedStep::comm_ops},
      {"mem.offload_ops_ms", &TracedStep::memcpy_ops},
      {"core.host_ops_ms", &TracedStep::host_ops},
      {"core.forward_ms", &TracedStep::forward},
      {"core.backward_ms", &TracedStep::backward},
      {"core.requant_ms", &TracedStep::requant},
      {"runtime.adam_ms", &TracedStep::adam},
      {"runtime.loss_ms", &TracedStep::loss_fn},
      {"runtime.batch_gen_ms", &TracedStep::batch_gen},
      {"runtime.zero_grad_ms", &TracedStep::zero_grad},
      {"sim.graph_makespan_ms", &TracedStep::measured_makespan},
  };
  for (const auto& [name, field] : mean_ms) {
    result.set(name,
               per_step([f = field](const TracedStep& s) { return s.*f; }) *
                   1e3);
  }
  result.set("core.outside_graph_ms", per_step([](const TracedStep& s) {
               return s.forward + s.backward - s.measured_makespan;
             }) * 1e3);
  double measured = 0.0, simulated = 0.0, spans = 0.0, walls = 0.0;
  for (const TracedStep& s : win) {
    measured += s.measured_makespan;
    simulated += s.simulated_makespan;
    spans += s.zero_grad + s.batch_gen + s.forward + s.loss_fn + s.backward +
             s.adam + s.requant;
    walls += s.wall;
  }
  result.set("sim.model_error", measured / simulated);
  result.set("bench.trace_coverage", spans / walls);
  result.set("comm.payload_bytes_per_iter",
             per_step([](const TracedStep& s) { return s.payload_bytes; }));
  result.set("core.n_partitions_mean", per_step([](const TracedStep& s) {
               return static_cast<double>(s.n);
             }));
  result.set("mem.activations_mib", max_of([](const TracedStep& s) {
               return static_cast<double>(s.memory.activations);
             }) / kMiB);
  result.set("mem.temp_buffers_mib", max_of([](const TracedStep& s) {
               return static_cast<double>(s.memory.temp_buffers);
             }) / kMiB);
  result.set("mem.comm_buffers_mib", max_of([](const TracedStep& s) {
               return static_cast<double>(s.memory.comm);
             }) / kMiB);
  result.set("mem.host_staging_mib", max_of([](const TracedStep& s) {
               return s.staging_bytes;
             }) / kMiB);

  const std::size_t lookups = (search1.cache_hits - search0.cache_hits) +
                              (search1.range_hits - search0.range_hits) +
                              (search1.full_searches - search0.full_searches);
  const std::size_t hits = (search1.cache_hits - search0.cache_hits) +
                           (search1.range_hits - search0.range_hits);
  result.set("core.search_hit_ratio",
             lookups > 0 ? static_cast<double>(hits) / lookups : 0.0);
  result.set("core.search_trials_per_iter",
             static_cast<double>(search1.trials - search0.trials) /
                 static_cast<double>(w.model_steps));
  result.set("common.pool_tasks_per_iter",
             per_step([](const TracedStep& s) { return s.pool_tasks; }));

  const auto tail = static_cast<std::size_t>(w.loss_tail);
  result.set("runtime.loss_final", mean(window(plain.loss, need - tail, tail)));

  // Probes at the workload's nominal shape.
  const core::MoELayerOptions options = layer_options(w, false);
  const SelectorProbe selector = probe_selector(options, w.tokens_per_device);
  result.set("core.selector_regret", selector.regret());
  const std::int64_t panel_rows = std::max<std::int64_t>(
      1, w.tokens_per_device / selector.chosen_n / (kExperts / kDevices));
  const GemmProbe gemm = probe_gemm(panel_rows, w.d_model, w.d_hidden,
                                    w.dtype, args.seed);
  result.set("tensor.gemm_gflops", gemm.dtype_gflops);
  result.set("tensor.gemm_gflops_f32", gemm.f32_gflops);
  std::fprintf(stderr,
               "perfbench: %zu traced steps, %d-step window; selector: %s; "
               "gemm panel %lld rows: %.2f GFLOP/s (%s), %.2f GFLOP/s (f32)\n",
               steps.size() - w0, w.model_steps, selector.summary().c_str(),
               static_cast<long long>(panel_rows), gemm.dtype_gflops,
               to_string(w.dtype), gemm.f32_gflops);
}

void run_training(const TrainWorkload& w, const Args& args, Result& result) {
  if (args.trace) {
    run_traced(w, args, result);
  } else {
    run_untraced(w, args, result);
  }
}

}  // namespace

void run_train_pipelined(const Args& args, Result& result) {
  run_training(kPipelined, args, result);
}

void run_train_dynamic_bf16(const Args& args, Result& result) {
  run_training(kDynamicBf16, args, result);
}

}  // namespace perfbench
