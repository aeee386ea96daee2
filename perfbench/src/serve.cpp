/// The serving workload: a serve::Server replays a seeded bursty
/// open-arrival trace through MoELayer::forward_only. Arrival times come
/// from the trace, never from completions, and a request's latency runs
/// from its scheduled arrival on the server's virtual clock. The timed
/// phase replays the trace back to back on one server and steps it one
/// batch at a time (Server::drain to one more completion), so each
/// executed batch gets its own wall time without touching the server.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/moe_layer.h"
#include "probes.h"
#include "serve/server.h"
#include "serve/traffic.h"
#include "tensor/ops.h"

namespace perfbench {

using namespace mpipe;

namespace {

constexpr int kDevices = 4;
constexpr int kExperts = 8;
constexpr std::int64_t kDModel = 64;
constexpr std::int64_t kDHidden = 256;
constexpr int kSetupReps = 9;
/// The served model is fixed; --seed varies only the traffic.
constexpr std::uint64_t kModelSeed = 42;

/// Requests per trace; the trace is what one replay serves.
constexpr std::int64_t kRequests = 4000;
/// Mean arrival rate of the trace (bursts run 8x above it, lulls 8x below).
constexpr double kBaseRate = 10000.0;
/// Latency limit on a request's p99, arrival to completion. Sized so the
/// base rate meets it and the top ladder rate does not.
constexpr double kSloSeconds = 0.5e-3;
/// Fixed ladder of arrival rates the trace is also replayed at.
constexpr double kLadderRatio = 1.4;
constexpr int kLadderRungs = 8;
/// Requests of the trace's head served during set-up.
constexpr std::int64_t kWarmupRequests = 1024;
/// Virtual seconds between replays: no backlog carries over.
constexpr double kReplayGap = 1.0;
/// Requests whose output is checked against a solo forward_only.
constexpr int kSampledChecks = 16;
/// Tolerance of that comparison (the serving tests use the same).
constexpr float kOutputTolerance = 2e-5f;

core::MoELayerOptions layer_options() {
  core::MoELayerOptions o;
  o.d_model = kDModel;
  o.d_hidden = kDHidden;
  o.num_experts = kExperts;
  o.memory_reuse = true;
  o.parallel_execution = false;
  o.seed = kModelSeed;
  return o;
}

serve::ServerOptions server_options(bool profile, bool keep_outputs) {
  serve::ServerOptions o;
  o.slo.max_tokens_per_device = 64;
  o.profile_execution = profile;
  o.keep_outputs = keep_outputs;
  return o;
}

std::vector<serve::ServeRequest> make_trace(std::uint64_t seed) {
  serve::TrafficOptions t;
  t.num_requests = kRequests;
  t.rate_rps = kBaseRate;
  t.min_tokens = 1;
  t.max_tokens = 16;
  t.d_model = kDModel;
  t.seed = seed;
  return serve::bursty_trace(t);
}

/// The trace with ids offset by `id_base`, arrivals by `offset` seconds
/// and inter-arrival gaps scaled by `time_scale`. Token tensors are shared.
std::vector<serve::ServeRequest> retimed(
    const std::vector<serve::ServeRequest>& trace, std::int64_t id_base,
    double offset, double time_scale = 1.0) {
  std::vector<serve::ServeRequest> out = trace;
  for (serve::ServeRequest& r : out) {
    r.id += id_base;
    r.arrival_seconds = offset + r.arrival_seconds * time_scale;
  }
  return out;
}

struct ServeRig {
  sim::Cluster cluster;
  core::MoELayer layer;
  std::unique_ptr<serve::Server> server;

  ServeRig(bool profile, bool keep_outputs)
      : cluster(sim::Cluster::dgx_a100_pod(1, kDevices)),
        layer(cluster, layer_options()),
        server(std::make_unique<serve::Server>(
            layer, server_options(profile, keep_outputs))) {}

  /// Set-up's warm-up: serves the trace's head to completion.
  void warm_up(const std::vector<serve::ServeRequest>& trace) {
    server->run({trace.begin(), trace.begin() + kWarmupRequests});
  }
};

struct BatchSample {
  double wall = 0;          ///< the drain call: batching, forward_only, records
  double forward_only = 0;  ///< the server's timing of forward_only (profiled)
  double tokens = 0;
  double modeled = 0;
  double measured_makespan = 0;
  double compute_ops = 0, comm_ops = 0, memcpy_ops = 0, host_ops = 0;
  double payload_bytes = 0, staging_bytes = 0;
  int n = 1;
  core::MemorySnapshot memory;
};

struct Replay {
  std::vector<BatchSample> batches;
  std::vector<serve::RequestRecord> requests;
  std::int64_t id_base = 0;
  double tokens = 0, wall = 0;
  std::uint64_t pool_tasks = 0;  ///< shared-pool tasks enqueued meanwhile
  double rss_mib = 0;            ///< process peak RSS when the replay ended
};

/// Pushes the trace after the server's clock and serves it batch by batch.
Replay replay(ServeRig& rig, const std::vector<serve::ServeRequest>& trace,
              std::int64_t index) {
  serve::Server& server = *rig.server;
  Replay out;
  out.id_base = (index + 1) * kRequests;
  const std::size_t first_request = server.metrics().requests_served();
  const std::size_t target = first_request + trace.size();
  for (serve::ServeRequest& r :
       retimed(trace, out.id_base, server.clock_seconds() + kReplayGap)) {
    server.queue().push(std::move(r));
  }
  const std::uint64_t tasks0 = ThreadPool::shared().tasks_enqueued();
  while (server.metrics().requests_served() < target) {
    const auto t0 = Clock::now();
    server.drain(server.metrics().requests_served() + 1);
    BatchSample b;
    b.wall = seconds_since(t0);
    const serve::BatchRecord& record = server.metrics().batches().back();
    const core::StepReport& r = rig.layer.last_report();
    b.forward_only = record.measured_seconds;
    b.tokens = static_cast<double>(record.tokens);
    b.modeled = record.modeled_seconds;
    b.measured_makespan = r.forward_measured.makespan;
    const auto cls = [&r](sim::OpClass c) {
      return r.forward_diff.measured_class_seconds[static_cast<std::size_t>(c)];
    };
    b.compute_ops = cls(sim::OpClass::kCompute);
    b.comm_ops = cls(sim::OpClass::kComm);
    b.memcpy_ops = cls(sim::OpClass::kMemcpy);
    b.host_ops = cls(sim::OpClass::kHost);
    b.payload_bytes = static_cast<double>(r.alltoall_payload_bytes);
    b.staging_bytes = static_cast<double>(rig.layer.staging().bytes_stored());
    b.n = r.n_partitions;
    b.memory = r.memory;
    out.tokens += b.tokens;
    out.wall += b.wall;
    out.batches.push_back(b);
  }
  out.pool_tasks = ThreadPool::shared().tasks_enqueued() - tasks0;
  out.rss_mib = peak_rss_mib();
  const auto& records = server.metrics().requests();
  out.requests.assign(
      records.begin() + static_cast<std::ptrdiff_t>(first_request),
      records.end());
  return out;
}

/// Replays until `seconds` have passed (at least one replay), appending to
/// `replays`.
void replay_for(ServeRig& rig, const std::vector<serve::ServeRequest>& trace,
                double seconds, std::vector<Replay>& replays, Result& result) {
  const auto t0 = Clock::now();
  do {
    result.attempt(static_cast<std::int64_t>(trace.size()));
    replays.push_back(
        replay(rig, trace, static_cast<std::int64_t>(replays.size())));
  } while (seconds_since(t0) < seconds);
}

/// Set-up as a user pays it: layer and server construction (the server
/// plans its batch ladder) plus serving the warm-up requests.
std::unique_ptr<ServeRig> set_up(const std::vector<serve::ServeRequest>& trace,
                                 std::vector<double>& seconds, Result& result) {
  const auto t0 = Clock::now();
  auto rig = std::make_unique<ServeRig>(/*profile=*/false,
                                        /*keep_outputs=*/false);
  rig->warm_up(trace);
  seconds.push_back(seconds_since(t0));
  result.attempt(kWarmupRequests);
  return rig;
}

/// Requests of `replay` that were served exactly once; checks that every
/// request sent was.
std::int64_t check_served_once(const Replay& replay,
                               const std::vector<serve::ServeRequest>& trace,
                               Result& result) {
  std::vector<std::int64_t> seen(trace.size(), 0);
  bool in_range = true;
  for (const serve::RequestRecord& r : replay.requests) {
    const std::int64_t i = r.id - replay.id_base;
    if (i < 0 || i >= static_cast<std::int64_t>(trace.size())) {
      in_range = false;
      continue;
    }
    const auto at = static_cast<std::size_t>(i);
    in_range = in_range && r.tokens == trace[at].tokens.dim(0);
    ++seen[at];
  }
  const auto once = std::count(seen.begin(), seen.end(), 1);
  result.check(in_range && once == static_cast<std::int64_t>(trace.size()),
               "every request sent is served exactly once");
  return once;
}

double tokens_per_second(const std::vector<Replay>& replays) {
  std::vector<double> tokens, wall;
  for (const Replay& r : replays) {
    tokens.push_back(r.tokens);
    wall.push_back(r.wall);
  }
  return windowed_rate(tokens, wall, 1);
}

/// Latencies of a replay in request-id order (comparable bitwise).
std::vector<double> latencies(const Replay& replay) {
  std::vector<serve::RequestRecord> sorted = replay.requests;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  std::vector<double> v;
  for (const serve::RequestRecord& r : sorted) v.push_back(r.latency());
  return v;
}

/// forward_only on one request alone, sharded over the devices with zero
/// padding as the server shards a batch.
Tensor solo_forward(core::MoELayer& layer, const Tensor& tokens) {
  const std::int64_t t = tokens.dim(0);
  const std::int64_t bpd = (t + kDevices - 1) / kDevices;
  std::vector<Tensor> shards;
  for (int d = 0; d < kDevices; ++d) {
    Tensor shard(Shape{bpd, kDModel});
    const std::int64_t begin = std::min<std::int64_t>(t, d * bpd);
    const std::int64_t end = std::min<std::int64_t>(t, (d + 1) * bpd);
    if (end > begin) shard.copy_into_rows(0, tokens.slice_rows(begin, end));
    shards.push_back(std::move(shard));
  }
  const std::vector<Tensor> outs = layer.forward_only(shards, 1);
  Tensor full(Shape{t, kDModel});
  for (int d = 0; d < kDevices; ++d) {
    const std::int64_t begin = std::min<std::int64_t>(t, d * bpd);
    const std::int64_t end = std::min<std::int64_t>(t, (d + 1) * bpd);
    if (end > begin) {
      full.copy_into_rows(begin, outs[static_cast<std::size_t>(d)].slice_rows(
                                     0, end - begin));
    }
  }
  return full;
}

/// Output checks, outside every timed phase: a fresh set-up with the same
/// seed serves replay 0 again keeping its outputs. Every row must be
/// finite, a sample must match forward_only on the request alone, and the
/// virtual-clock latencies must repeat replay 0's bitwise.
void check_outputs(const std::vector<serve::ServeRequest>& trace,
                   const Replay& timed_replay0, Result& result) {
  ServeRig rig(/*profile=*/false, /*keep_outputs=*/true);
  rig.warm_up(trace);
  result.attempt(static_cast<std::int64_t>(trace.size()));
  const Replay again = replay(rig, trace, 0);
  check_served_once(again, trace, result);
  result.check(latencies(again) == latencies(timed_replay0),
               "same seed repeats the virtual-clock latencies bitwise");

  bool shapes_finite = true;
  for (const serve::ServeRequest& r : trace) {
    const Tensor& out = rig.server->output_for(r.id + again.id_base);
    shapes_finite = shapes_finite && out.dim(0) == r.tokens.dim(0) &&
                    out.dim(1) == kDModel && all_finite(out);
  }
  result.check(shapes_finite, "every served row is finite and shaped right");

  for (int s = 0; s < kSampledChecks; ++s) {
    const serve::ServeRequest& r =
        trace[static_cast<std::size_t>(s) * trace.size() / kSampledChecks];
    const float diff =
        max_abs_diff(rig.server->output_for(r.id + again.id_base),
                     solo_forward(rig.layer, r.tokens));
    result.check(diff < kOutputTolerance,
                 "request " + std::to_string(r.id) +
                     " matches forward_only on the request alone (diff " +
                     std::to_string(diff) + ")");
  }
}

/// The fixed rate ladder: the trace retimed to each rate on a fresh server.
/// A rung meets the SLO when every request is served, the p99 latency is
/// within the limit, and the last completion trails the last arrival by no
/// more than the limit (no growing backlog).
double max_rate(core::MoELayer& layer,
                const std::vector<serve::ServeRequest>& trace, Result& result) {
  double best = 0.0;
  bool still_meeting = true;
  std::fprintf(stderr, "perfbench: ladder (SLO p99 <= %.3f ms):",
               kSloSeconds * 1e3);
  for (int i = 0; i < kLadderRungs; ++i) {
    const double rate = kBaseRate * std::pow(kLadderRatio, i);
    serve::Server server(layer, server_options(false, false));
    auto scaled = retimed(trace, 0, 0.0, kBaseRate / rate);
    const double last_arrival = scaled.back().arrival_seconds;
    result.attempt(static_cast<std::int64_t>(scaled.size()));
    const serve::ServeMetrics& m = server.run(std::move(scaled));
    double last_completion = 0.0;
    for (const auto& r : m.requests()) {
      last_completion = std::max(last_completion, r.completion_seconds);
    }
    const double p99 = m.latency_percentile(0.99);
    const bool meets = m.requests_served() == trace.size() &&
                       p99 <= kSloSeconds &&
                       last_completion - last_arrival <= kSloSeconds;
    std::fprintf(stderr, " %.0f/s p99 %.3f ms%s;", rate, p99 * 1e3,
                 meets ? "" : " (miss)");
    still_meeting = still_meeting && meets;
    if (still_meeting) best = rate;
  }
  std::fprintf(stderr, "\n");
  return best;
}

void run_untraced(const Args& args, Result& result) {
  const std::vector<serve::ServeRequest> trace = make_trace(args.seed);
  std::vector<double> setup_seconds;
  std::unique_ptr<ServeRig> rig = set_up(trace, setup_seconds, result);
  // Timed replays in slices with one more set-up after each, so set-up
  // samples spread over the run like the batch samples do.
  std::vector<Replay> replays;
  const int slices = kSetupReps - 1;
  for (int slice = 0; slice < slices; ++slice) {
    replay_for(*rig, trace, args.seconds / slices, replays, result);
    set_up(trace, setup_seconds, result);
  }

  std::vector<double> wall_ms;
  for (const Replay& r : replays) {
    for (const BatchSample& b : r.batches) wall_ms.push_back(b.wall * 1e3);
  }
  const Replay& first = replays.front();
  std::vector<double> modeled_ms;
  double peak = 0.0;
  for (const BatchSample& b : first.batches) {
    modeled_ms.push_back(b.modeled * 1e3);
    peak = std::max(peak, static_cast<double>(b.memory.total_peak));
  }
  const std::vector<double> latency = latencies(first);

  result.set("tokens_per_s", tokens_per_second(replays));
  result.set("iter_ms_p50", quantile(wall_ms, 0.5));
  result.set("iter_ms_p90", quantile(wall_ms, 0.9));
  result.set("setup_s", median(setup_seconds));
  // After set-up and one replay: a fixed amount of work, whereas the
  // server's records keep growing with every further replay.
  result.set("host_rss_mib", first.rss_mib);
  result.set("sim_step_ms", mean(modeled_ms));
  result.set("peak_device_mib", peak / kMiB);
  result.set("latency_ms_p50", quantile(latency, 0.5) * 1e3);
  result.set("latency_ms_p99", quantile(latency, 0.99) * 1e3);
  std::fprintf(stderr,
               "perfbench: %zu replays of %lld requests, %zu batches timed; "
               "replay 0: %zu batches, %zu requests\n",
               replays.size(), static_cast<long long>(kRequests),
               wall_ms.size(), first.batches.size(), first.requests.size());

  for (const Replay& r : replays) check_served_once(r, trace, result);
  check_outputs(trace, first, result);
}

void run_traced(const Args& args, Result& result) {
  const std::vector<serve::ServeRequest> trace = make_trace(args.seed);

  // An untraced server (the base of the tracing overhead, the latency
  // figures and the rate ladder) and one that profiles every batch (per-op
  // records + forward_only wall) alternate in slices, so a slow spell of
  // the host lands on both alike.
  ServeRig plain(false, false);
  ServeRig traced(true, false);
  plain.warm_up(trace);
  traced.warm_up(trace);
  std::vector<Replay> plain_replays, traced_replays;
  constexpr int kSlices = 8;
  for (int slice = 0; slice < kSlices; ++slice) {
    const bool trace_slice = slice % 2 == 1;
    replay_for(trace_slice ? traced : plain, trace, args.seconds / kSlices,
               trace_slice ? traced_replays : plain_replays, result);
  }
  const Replay& base = plain_replays.front();
  std::int64_t served = 0;
  for (const Replay& r : plain_replays) {
    served += check_served_once(r, trace, result);
  }
  for (const Replay& r : traced_replays) {
    served += check_served_once(r, trace, result);
  }
  const std::int64_t sent = static_cast<std::int64_t>(
      trace.size() * (plain_replays.size() + traced_replays.size()));
  result.set("serve.requests_failed", static_cast<double>(sent - served));
  result.check(latencies(traced_replays.front()) == latencies(base),
               "profiling leaves the virtual-clock latencies unchanged");
  result.set("bench.trace_overhead", tokens_per_second(traced_replays) /
                                         tokens_per_second(plain_replays));

  // Per-layer figures over the fixed window: replay 0 of the traced phase.
  const std::vector<BatchSample>& win = traced_replays.front().batches;
  const auto per_batch = [&win](auto field) {
    double sum = 0.0;
    for (const BatchSample& b : win) sum += field(b);
    return sum / static_cast<double>(win.size());
  };
  const auto max_of = [&win](auto field) {
    double m = 0.0;
    for (const BatchSample& b : win) m = std::max(m, field(b));
    return m;
  };
  result.set("serve.forward_only_ms", per_batch([](const BatchSample& b) {
               return b.forward_only;
             }) * 1e3);
  result.set("serve.host_overhead_ms", per_batch([](const BatchSample& b) {
               return b.wall - b.forward_only;
             }) * 1e3);
  result.set("tensor.compute_ops_ms", per_batch([](const BatchSample& b) {
               return b.compute_ops;
             }) * 1e3);
  result.set("comm.alltoall_ops_ms",
             per_batch([](const BatchSample& b) { return b.comm_ops; }) * 1e3);
  result.set("mem.offload_ops_ms", per_batch([](const BatchSample& b) {
               return b.memcpy_ops;
             }) * 1e3);
  result.set("core.host_ops_ms",
             per_batch([](const BatchSample& b) { return b.host_ops; }) * 1e3);
  result.set("core.outside_graph_ms", per_batch([](const BatchSample& b) {
               return b.forward_only - b.measured_makespan;
             }) * 1e3);
  result.set("sim.graph_makespan_ms", per_batch([](const BatchSample& b) {
               return b.measured_makespan;
             }) * 1e3);
  double measured = 0.0, modeled = 0.0, inside = 0.0, wall = 0.0;
  for (const BatchSample& b : win) {
    measured += b.measured_makespan;
    modeled += b.modeled;
    inside += b.forward_only;
    wall += b.wall;
  }
  result.set("sim.model_error", measured / modeled);
  result.set("bench.trace_coverage", inside / wall);
  result.set("comm.payload_bytes_per_iter",
             per_batch([](const BatchSample& b) { return b.payload_bytes; }));
  const double n_mean = per_batch(
      [](const BatchSample& b) { return static_cast<double>(b.n); });
  result.set("core.n_partitions_mean", n_mean);
  result.set("mem.activations_mib", max_of([](const BatchSample& b) {
               return static_cast<double>(b.memory.activations);
             }) / kMiB);
  result.set("mem.temp_buffers_mib", max_of([](const BatchSample& b) {
               return static_cast<double>(b.memory.temp_buffers);
             }) / kMiB);
  result.set("mem.comm_buffers_mib", max_of([](const BatchSample& b) {
               return static_cast<double>(b.memory.comm);
             }) / kMiB);
  result.set("mem.host_staging_mib", max_of([](const BatchSample& b) {
               return b.staging_bytes;
             }) / kMiB);
  const double batch_tokens =
      per_batch([](const BatchSample& b) { return b.tokens; });
  result.set("serve.batch_tokens_mean", batch_tokens);

  std::vector<double> queue_delay;
  std::int64_t within_slo = 0;
  for (const serve::RequestRecord& r : base.requests) {
    queue_delay.push_back(r.queue_delay());
    within_slo += r.latency() <= kSloSeconds ? 1 : 0;
  }
  result.set("serve.queue_delay_ms_p99", quantile(queue_delay, 0.99) * 1e3);
  // Requests sent, not served, are the base: a lost request is a miss.
  result.set("serve.slo_attainment", static_cast<double>(within_slo) /
                                         static_cast<double>(trace.size()));

  const serve::ServePlan& plan = plain.server->plan();
  result.set("serve.plan_tokens_per_device",
             static_cast<double>(plan.tokens_per_device));
  // The plan ranks S1-S4 by their Eq-10 forward cost at its operating point.
  const std::vector<double>& costs = plan.strategy_forward_costs;
  const int chosen = static_cast<int>(plan.strategy) -
                     static_cast<int>(core::ReuseStrategy::kS1);
  if (!costs.empty() && chosen >= 0 &&
      chosen < static_cast<int>(costs.size())) {
    result.set("core.selector_regret",
               costs[static_cast<std::size_t>(chosen)] /
                   *std::min_element(costs.begin(), costs.end()));
  }

  const std::int64_t panel_rows = std::max<std::int64_t>(
      1, std::llround(batch_tokens / kDevices / n_mean /
                      (kExperts / kDevices)));
  const GemmProbe gemm =
      probe_gemm(panel_rows, kDModel, kDHidden, DType::kF32, args.seed);
  result.set("tensor.gemm_gflops", gemm.dtype_gflops);
  result.set("tensor.gemm_gflops_f32", gemm.f32_gflops);

  result.set("serve.max_rate_rps", max_rate(plain.layer, trace, result));
  result.set("common.pool_tasks_per_iter",
             static_cast<double>(traced_replays.front().pool_tasks) /
                 static_cast<double>(win.size()));
  std::fprintf(stderr,
               "perfbench: %zu untraced + %zu traced replays; window %zu "
               "batches, plan %s\n",
               plain_replays.size(), traced_replays.size(), win.size(),
               plan.summary().c_str());
}

}  // namespace

void run_serve_bursty(const Args& args, Result& result) {
  if (args.trace) {
    run_traced(args, result);
  } else {
    run_untraced(args, result);
  }
}

}  // namespace perfbench
