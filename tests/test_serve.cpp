// The serving tier: forward_only must reproduce the training forward's
// math bitwise (across every restore strategy and both executors) while
// allocating none of the backward/stash state; the continuous batcher must
// preserve per-request FIFO token order under fuzzed open arrivals; the
// server end-to-end must route every request's tokens to the same experts
// a direct evaluation picks, and account per-request latency on its
// virtual clock; and the SLO selector must pick the largest feasible rung
// (degrading loudly when none is).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/moe_layer.h"
#include "serve/batcher.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "serve/slo_policy.h"
#include "serve/traffic.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

core::MoELayerOptions serve_layer_options() {
  core::MoELayerOptions o;
  o.d_model = 16;
  o.d_hidden = 48;
  o.num_experts = 8;
  o.num_partitions = 2;
  o.seed = 7;
  return o;
}

std::vector<Tensor> make_inputs(int devices, std::int64_t tokens,
                                std::int64_t d_model, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (int d = 0; d < devices; ++d) {
    inputs.push_back(random_tokens(tokens, d_model, rng));
  }
  return inputs;
}

// ---- forward_only vs training forward --------------------------------------

struct ServeParityCase {
  core::ReuseStrategy strategy;
  bool memory_reuse;
  bool parallel;
};

std::string parity_case_name(
    const testing::TestParamInfo<ServeParityCase>& info) {
  const ServeParityCase& c = info.param;
  return (c.memory_reuse ? core::to_string(c.strategy) : std::string("raw")) +
         (c.parallel ? "Parallel" : "Serial");
}

class ForwardOnlyParity : public testing::TestWithParam<ServeParityCase> {};

TEST_P(ForwardOnlyParity, BitwiseMatchesTrainingForward) {
  // The serving path strips offload ops and rebadges the strategy, but the
  // compute/comm op sequence is the training forward's — so the outputs
  // must match to the bit, not to a tolerance.
  const ServeParityCase c = GetParam();
  core::MoELayerOptions o = serve_layer_options();
  o.memory_reuse = c.memory_reuse;
  if (c.memory_reuse) o.strategy = c.strategy;
  o.parallel_execution = c.parallel;

  const auto inputs = make_inputs(4, 33, o.d_model, 99);

  sim::Cluster train_cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer train_layer(train_cluster, o);
  const auto trained = train_layer.forward(inputs);

  sim::Cluster serve_cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer serve_layer(serve_cluster, o);
  const auto served = serve_layer.forward_only(inputs);

  ASSERT_EQ(trained.size(), served.size());
  for (std::size_t d = 0; d < trained.size(); ++d) {
    EXPECT_EQ(max_abs_diff(trained[d], served[d]), 0.0f) << "device " << d;
  }
  // The report labels the path honestly.
  EXPECT_EQ(serve_layer.last_report().strategy,
            c.memory_reuse ? core::ReuseStrategy::kS4
                           : core::ReuseStrategy::kNone);
  EXPECT_EQ(serve_layer.last_report().backward_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesBothExecutors, ForwardOnlyParity,
    testing::Values(
        ServeParityCase{core::ReuseStrategy::kNone, false, false},
        ServeParityCase{core::ReuseStrategy::kNone, false, true},
        ServeParityCase{core::ReuseStrategy::kS1, true, false},
        ServeParityCase{core::ReuseStrategy::kS1, true, true},
        ServeParityCase{core::ReuseStrategy::kS2, true, false},
        ServeParityCase{core::ReuseStrategy::kS2, true, true},
        ServeParityCase{core::ReuseStrategy::kS3, true, false},
        ServeParityCase{core::ReuseStrategy::kS3, true, true},
        ServeParityCase{core::ReuseStrategy::kS4, true, false},
        ServeParityCase{core::ReuseStrategy::kS4, true, true}),
    parity_case_name);

TEST(ForwardOnlyMemory, AllocatesNoBackwardOrStashState) {
  // The acceptance assertion of the serving tier: no kTempBuffer bytes
  // (those are exclusively backward state), no host staging (the training
  // forward's activation stash), and a strictly lower device peak than
  // the training step on the same batch.
  core::MoELayerOptions o = serve_layer_options();
  o.memory_reuse = true;
  o.strategy = core::ReuseStrategy::kS1;  // offload-heavy training baseline
  const auto inputs = make_inputs(4, 64, o.d_model, 8);

  sim::Cluster train_cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer train_layer(train_cluster, o);
  auto outputs = train_layer.forward(inputs);
  // Training forward stashes T_DI / T_M partitions on the host.
  EXPECT_GT(train_layer.staging().entries(), 0u);
  EXPECT_GT(train_layer.staging().bytes_stored(), 0u);
  std::vector<Tensor> grads;
  for (auto& out : outputs) grads.push_back(Tensor(out.shape()));
  train_layer.backward(grads);
  const auto train_mem = train_layer.last_report().memory;
  EXPECT_GT(train_mem.temp_buffers, 0u);

  sim::Cluster serve_cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer serve_layer(serve_cluster, o);
  serve_layer.forward_only(inputs);
  const auto serve_mem = serve_layer.last_report().memory;
  EXPECT_EQ(serve_mem.temp_buffers, 0u) << "serving allocated backward state";
  EXPECT_EQ(serve_layer.staging().entries(), 0u);
  EXPECT_EQ(serve_layer.staging().bytes_stored(), 0u);
  EXPECT_LT(serve_mem.total_peak, train_mem.total_peak);

  // No step context survives: a backward now is a contract violation.
  EXPECT_THROW(serve_layer.backward(grads), CheckError);
}

TEST(ForwardOnlyMemory, PartitionOverridePinsGranularity) {
  core::MoELayerOptions o = serve_layer_options();
  o.num_partitions = 0;  // adaptive — the override must win anyway
  o.candidate_partitions = {1, 2, 4};
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, o);
  const auto inputs = make_inputs(4, 32, o.d_model, 5);
  layer.forward_only(inputs, /*n_override=*/4);
  EXPECT_EQ(layer.last_report().n_partitions, 4);
  EXPECT_GT(layer.last_report().forward_seconds, 0.0);
}

// ---- request queue ---------------------------------------------------------

serve::ServeRequest make_request(std::int64_t id, std::int64_t tokens,
                                 std::int64_t d_model, double arrival) {
  serve::ServeRequest r;
  r.id = id;
  r.tokens = Tensor(Shape{tokens, d_model});
  // Encode (request, row) into the payload so batch placement is provable.
  for (std::int64_t t = 0; t < tokens; ++t) {
    for (std::int64_t j = 0; j < d_model; ++j) {
      r.tokens.at(t * d_model + j) =
          static_cast<float>(id) * 100.0f + static_cast<float>(t);
    }
  }
  r.arrival_seconds = arrival;
  return r;
}

TEST(RequestQueue, FifoPopRespectsArrivalAndTokenCap) {
  serve::RequestQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_arrival(), std::numeric_limits<double>::infinity());
  q.push(make_request(0, 4, 4, 0.0));
  q.push(make_request(1, 4, 4, 1.0));
  q.push(make_request(2, 4, 4, 1.0));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pending_tokens(), 12);
  EXPECT_EQ(q.next_arrival(), 0.0);

  // Nothing has arrived at t = -1.
  EXPECT_TRUE(q.pop_arrived(-1.0, 0).empty());
  // At t = 1 all three have arrived, but an 6-token cap admits only the
  // first (4 + 4 > 6).
  auto got = q.pop_arrived(1.0, 6);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0);
  got = q.pop_arrived(1.0, 0);  // unbounded: the rest drain together
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 1);
  EXPECT_EQ(got[1].id, 2);
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, OversizedHeadIsAdmittedAloneNotLivelocked) {
  serve::RequestQueue q;
  q.push(make_request(0, 32, 4, 0.0));
  q.push(make_request(1, 1, 4, 0.0));
  auto got = q.pop_arrived(0.0, 8);  // head alone exceeds the cap
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0);
}

TEST(RequestQueue, TimeTravellingArrivalThrows) {
  serve::RequestQueue q;
  q.push(make_request(0, 1, 4, 5.0));
  EXPECT_THROW(q.push(make_request(1, 1, 4, 4.0)), CheckError);
}

// ---- continuous batcher ----------------------------------------------------

TEST(ContinuousBatcher, PreservesPerRequestTokenOrderUnderFuzzedArrivals) {
  // Fuzz: random arrival gaps, random request sizes, random clock steps,
  // random admission caps. Invariants checked on every popped batch:
  // spans are contiguous and gapless, ids strictly ascend in push order
  // across the whole run, and every coalesced row is bitwise the row the
  // request pushed.
  const std::int64_t M = 4;
  for (std::uint64_t seed : {1ull, 17ull, 4242ull}) {
    Rng rng(seed);
    serve::RequestQueue q;
    serve::ContinuousBatcher batcher(q, /*max_batch_tokens=*/9);
    const std::int64_t N = 40;
    double arrival = 0.0;
    std::vector<serve::ServeRequest> pushed;
    for (std::int64_t i = 0; i < N; ++i) {
      arrival += rng.uniform() * 1e-3;
      const std::int64_t tokens = 1 + static_cast<std::int64_t>(
                                          rng.uniform_index(7));
      pushed.push_back(make_request(i, tokens, M, arrival));
      q.push(pushed.back());
    }

    std::int64_t next_id = 0;
    double now = 0.0;
    while (next_id < N) {
      now += rng.uniform() * 2e-3;
      batcher.set_max_batch_tokens(
          rng.uniform() < 0.3 ? 0 : 3 + static_cast<std::int64_t>(
                                            rng.uniform_index(12)));
      serve::MicroBatch mb = batcher.next(now);
      if (mb.requests.empty()) continue;
      ASSERT_EQ(mb.requests.size(), mb.spans.size());
      std::int64_t row = 0;
      for (std::size_t i = 0; i < mb.spans.size(); ++i) {
        const serve::RequestSpan& span = mb.spans[i];
        EXPECT_EQ(span.id, next_id) << "FIFO order broken (seed " << seed
                                    << ")";
        EXPECT_EQ(span.row_begin, row) << "span not contiguous";
        EXPECT_EQ(span.rows, mb.requests[i].tokens.dim(0));
        const Tensor rows = mb.coalesced.slice_rows(
            span.row_begin, span.row_begin + span.rows);
        EXPECT_EQ(max_abs_diff(
                      rows,
                      pushed[static_cast<std::size_t>(span.id)].tokens),
                  0.0f)
            << "request " << span.id << " rows corrupted in coalesce";
        row += span.rows;
        ++next_id;
      }
      EXPECT_EQ(mb.total_tokens, row);
      EXPECT_LE(mb.oldest_arrival, mb.newest_arrival);
      EXPECT_LE(mb.newest_arrival, now) << "batched a future arrival";
      if (batcher.max_batch_tokens() > 0 && mb.requests.size() > 1) {
        EXPECT_LE(mb.total_tokens, batcher.max_batch_tokens());
      }
    }
    EXPECT_TRUE(q.empty());
  }
}

// ---- SLO selector ----------------------------------------------------------

TEST(SloSelector, PicksLargestFeasibleRungAndDegradesLoudly) {
  core::MoELayerOptions o = serve_layer_options();
  o.num_partitions = 0;
  o.candidate_partitions = {1, 2, 4};
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, o);

  // No SLO: the plan admits the full ladder cap.
  serve::SloPolicyOptions opts;
  opts.slo_seconds = 0.0;
  opts.max_tokens_per_device = 48;  // non-power-of-two cap joins the ladder
  serve::SloSelector unbounded(layer, opts);
  const serve::ServePlan full = unbounded.plan();
  EXPECT_TRUE(full.slo_feasible);
  EXPECT_EQ(full.tokens_per_device, 48);
  EXPECT_EQ(full.max_batch_tokens, 48 * 4);
  EXPECT_GT(full.predicted_seconds, 0.0);
  ASSERT_FALSE(full.rungs.empty());
  EXPECT_EQ(full.rungs.front().tokens_per_device, 1);
  EXPECT_EQ(full.rungs.back().tokens_per_device, 48);
  EXPECT_EQ(full.strategy_forward_costs.size(), 4u);
  EXPECT_FALSE(full.summary().empty());

  // Bigger rung, never cheaper: predictions are monotone up the ladder.
  for (std::size_t i = 1; i < full.rungs.size(); ++i) {
    EXPECT_GE(full.rungs[i].predicted_seconds,
              full.rungs[i - 1].predicted_seconds * 0.999)
        << "rung " << i;
  }

  // An SLO between the front and back rung's predictions must cut the
  // ladder strictly below the cap but keep feasibility.
  const double mid_slo = (full.rungs.front().predicted_seconds +
                          full.rungs.back().predicted_seconds) /
                         2.0;
  opts.slo_seconds = mid_slo;
  serve::SloSelector bounded(layer, opts);
  const serve::ServePlan capped = bounded.plan();
  EXPECT_TRUE(capped.slo_feasible);
  EXPECT_LT(capped.tokens_per_device, full.tokens_per_device);
  EXPECT_LE(capped.predicted_seconds, mid_slo);

  // An impossible SLO degrades to the smallest rung and says so.
  opts.slo_seconds = 1e-15;
  serve::SloSelector impossible(layer, opts);
  const serve::ServePlan degraded = impossible.plan();
  EXPECT_FALSE(degraded.slo_feasible);
  EXPECT_EQ(degraded.tokens_per_device, 1);
  EXPECT_NE(degraded.summary().find("INFEASIBLE"), std::string::npos);

  // partitions_for maps a batch to its covering rung.
  EXPECT_EQ(unbounded.partitions_for(1), full.rungs.front().n_partitions);
  EXPECT_EQ(unbounded.partitions_for(10000), full.rungs.back().n_partitions);
}

// ---- server end-to-end -----------------------------------------------------

/// Direct per-token evaluation (gates are replicated, so routing does not
/// depend on which device a token is batched onto).
Tensor reference_rows(core::MoELayer& layer, const Tensor& x) {
  const int epd = layer.experts_per_device();
  const auto gating = layer.gate(0).forward(x);
  Tensor out(x.shape());
  for (std::int64_t t = 0; t < x.dim(0); ++t) {
    const std::int64_t e = gating.expert_of[static_cast<std::size_t>(t)];
    const int holder = static_cast<int>(e / epd);
    const int local = static_cast<int>(e % epd);
    Tensor row = x.slice_rows(t, t + 1);
    Tensor mid;
    Tensor y = layer.expert(holder, local).forward(row, mid);
    scale_(y, gating.gate[static_cast<std::size_t>(t)]);
    out.copy_into_rows(t, y);
  }
  return out;
}

TEST(Server, ServesPoissonTraceWithCorrectOutputsAndAccounting) {
  core::MoELayerOptions o = serve_layer_options();
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, o);

  serve::TrafficOptions traffic;
  traffic.num_requests = 12;
  traffic.rate_rps = 3000.0;
  traffic.min_tokens = 1;
  traffic.max_tokens = 6;
  traffic.d_model = o.d_model;
  traffic.seed = 11;
  const auto trace = serve::poisson_trace(traffic);
  ASSERT_EQ(trace.size(), 12u);
  std::int64_t trace_tokens = 0;
  for (const auto& r : trace) trace_tokens += r.tokens.dim(0);

  serve::ServerOptions sopt;
  sopt.slo.max_tokens_per_device = 8;
  sopt.keep_outputs = true;
  serve::Server server(layer, sopt);
  EXPECT_GT(server.plan().max_batch_tokens, 0);

  const serve::ServeMetrics& m = server.run(trace);
  EXPECT_EQ(m.requests_served(), 12u);
  EXPECT_EQ(m.total_tokens(), static_cast<std::uint64_t>(trace_tokens));
  EXPECT_GE(m.batches_executed(), 1u);
  EXPECT_GT(server.clock_seconds(), 0.0);
  EXPECT_GT(m.tokens_per_second(), 0.0);
  EXPECT_GT(m.latency_percentile(0.5), 0.0);
  EXPECT_GE(m.latency_percentile(0.99), m.latency_percentile(0.5));
  EXPECT_FALSE(m.summary().empty());
  for (const serve::RequestRecord& r : m.requests()) {
    EXPECT_GE(r.queue_delay(), 0.0) << "request " << r.id;
    EXPECT_GT(r.latency(), 0.0) << "request " << r.id;
  }
  for (const serve::BatchRecord& b : m.batches()) {
    EXPECT_GT(b.tokens, 0);
    EXPECT_GT(b.service_seconds, 0.0);
    EXPECT_LE(b.tokens, server.plan().max_batch_tokens);
  }

  // Every request's retained output matches a direct evaluation of its own
  // tokens — batching, padding and sharding must not leak between
  // requests.
  for (const auto& r : trace) {
    const Tensor expected = reference_rows(layer, r.tokens);
    EXPECT_LT(max_abs_diff(server.output_for(r.id), expected), 2e-5f)
        << "request " << r.id;
  }
  EXPECT_THROW(server.output_for(999), CheckError);
}

TEST(Server, BurstyTraceCoalescesBacklogIntoLargerBatches) {
  core::MoELayerOptions o = serve_layer_options();
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, o);

  serve::TrafficOptions traffic;
  traffic.num_requests = 32;
  traffic.rate_rps = 20000.0;
  traffic.min_tokens = 1;
  traffic.max_tokens = 4;
  traffic.d_model = o.d_model;
  traffic.seed = 3;
  traffic.burst_factor = 16.0;
  traffic.burst_period_seconds = 2e-3;
  const auto trace = serve::bursty_trace(traffic);

  serve::ServerOptions sopt;
  sopt.slo.max_tokens_per_device = 16;
  serve::Server server(layer, sopt);
  const serve::ServeMetrics& m = server.run(trace);
  EXPECT_EQ(m.requests_served(), 32u);
  // A burst's backlog coalesces: strictly fewer batches than requests.
  EXPECT_LT(m.batches_executed(), m.requests_served());
  EXPECT_GT(m.mean_batch_tokens(), 1.0);
}

TEST(Server, WarmupFitsCorrectionsAndReplans) {
  core::MoELayerOptions o = serve_layer_options();
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, o);

  serve::TrafficOptions traffic;
  traffic.num_requests = 8;
  traffic.rate_rps = 5000.0;
  traffic.d_model = o.d_model;
  traffic.max_tokens = 4;
  traffic.seed = 21;

  serve::ServerOptions sopt;
  sopt.slo.max_tokens_per_device = 8;
  sopt.profile_warmup_batches = 2;
  serve::Server server(layer, sopt);
  EXPECT_FALSE(server.corrections_installed());
  server.run(serve::poisson_trace(traffic));
  EXPECT_TRUE(server.corrections_installed());
  // The fitted factors landed in the layer (shared with the SLO probes).
  EXPECT_FALSE(layer.corrections().identity());
  // At least the warmup batches carry a measured wall-clock half.
  std::size_t measured = 0;
  for (const serve::BatchRecord& b : server.metrics().batches()) {
    if (b.measured_seconds > 0.0) ++measured;
  }
  EXPECT_GE(measured, 2u);
}

TEST(Server, WarmupBatchThatThrowsRestoresLayerProfiling) {
  // Every comm attempt fails, so the first (warmup, profiled) batch's
  // forward_only exhausts its retries and throws out of drain(). The
  // server's temporary profiling override must not outlive the batch.
  core::MoELayerOptions o = serve_layer_options();
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  FaultInjectionConfig faults;
  faults.comm_failure_prob = 1.0;
  cluster.set_fault_injection(faults);
  core::MoELayer layer(cluster, o);
  ASSERT_FALSE(layer.options().profile_execution);

  serve::ServerOptions sopt;
  sopt.slo.max_tokens_per_device = 8;
  sopt.profile_warmup_batches = 1;
  serve::Server server(layer, sopt);
  server.queue().push(make_request(0, 3, o.d_model, 0.0));
  EXPECT_THROW(server.drain(1), TransientError);
  EXPECT_FALSE(layer.options().profile_execution);
}

TEST(Server, StoppingShortOfWarmupRestoresProfilingOverride) {
  // Two of three warmup batches: the partial fit is not installed, the
  // plan is still the uncorrected one, and the layer's own profiling
  // switch is back in place. The third batch completes the warmup,
  // installs the corrections and re-plans under them.
  core::MoELayerOptions o = serve_layer_options();
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, o);
  ASSERT_FALSE(layer.options().profile_execution);

  serve::ServerOptions sopt;
  sopt.slo.max_tokens_per_device = 8;
  sopt.profile_warmup_batches = 3;
  serve::Server server(layer, sopt);
  const serve::ServePlan uncorrected = server.plan();
  // Arrivals far apart on the virtual clock: one request per batch.
  for (std::int64_t i = 0; i < 2; ++i) {
    server.queue().push(
        make_request(i, 3, o.d_model, static_cast<double>(i)));
    server.drain(static_cast<std::size_t>(i + 1));
  }
  ASSERT_EQ(server.metrics().batches_executed(), 2u);
  EXPECT_FALSE(server.corrections_installed());
  EXPECT_TRUE(server.corrections().identity());
  EXPECT_FALSE(layer.options().profile_execution);
  EXPECT_FALSE(layer.options().trace_execution);
  ASSERT_EQ(server.plan().rungs.size(), uncorrected.rungs.size());
  for (std::size_t i = 0; i < uncorrected.rungs.size(); ++i) {
    EXPECT_EQ(server.plan().rungs[i].predicted_seconds,
              uncorrected.rungs[i].predicted_seconds);
  }

  server.queue().push(make_request(2, 3, o.d_model, 2.0));
  server.drain(3);
  EXPECT_TRUE(server.corrections_installed());
  EXPECT_FALSE(server.corrections().identity());
  EXPECT_FALSE(layer.options().profile_execution);
  // The plan was recomputed under the installed factors: it matches a
  // fresh plan over the corrected layer, and no longer the uncorrected one.
  serve::SloSelector fresh(layer, sopt.slo);
  const serve::ServePlan corrected = fresh.plan();
  ASSERT_EQ(server.plan().rungs.size(), corrected.rungs.size());
  for (std::size_t i = 0; i < corrected.rungs.size(); ++i) {
    EXPECT_EQ(server.plan().rungs[i].predicted_seconds,
              corrected.rungs[i].predicted_seconds);
  }
  EXPECT_NE(server.plan().rungs.back().predicted_seconds,
            uncorrected.rungs.back().predicted_seconds);
}

TEST(Server, ConcurrentProducerDrainsCleanly) {
  // TSAN tier: one producer thread stamps arrivals while the server loop
  // drains — the queue mutex and the batcher on top must keep every
  // request intact and ordered.
  core::MoELayerOptions o = serve_layer_options();
  o.parallel_execution = true;
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, o);

  serve::ServerOptions sopt;
  sopt.slo.max_tokens_per_device = 8;
  serve::Server server(layer, sopt);

  const std::int64_t N = 24;
  std::thread producer([&] {
    for (std::int64_t i = 0; i < N; ++i) {
      server.queue().push(
          make_request(i, 1 + (i % 4), o.d_model,
                       static_cast<double>(i) * 1e-4));
      if (i % 8 == 7) std::this_thread::yield();
    }
  });
  const serve::ServeMetrics& m = server.drain(static_cast<std::size_t>(N));
  producer.join();
  EXPECT_EQ(m.requests_served(), static_cast<std::size_t>(N));
  std::int64_t expected_tokens = 0;
  for (std::int64_t i = 0; i < N; ++i) expected_tokens += 1 + (i % 4);
  EXPECT_EQ(m.total_tokens(), static_cast<std::uint64_t>(expected_tokens));
}

}  // namespace
}  // namespace mpipe
