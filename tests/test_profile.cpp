// The measured-vs-modeled loop (sim/profile.h): timeline reconstruction
// from raw samples, the op-by-op schedule diff and its per-class model
// error, correction-factor fitting, and the feedback path — corrections
// re-rank the strategy selector and the granularity search (and are an
// exact no-op at identity), profiled MoELayer steps surface both the
// simulated and the measured makespan, and runtime::Trainer's warmup fit
// installs the factors without perturbing the numerics.

#include <gtest/gtest.h>

#include "common/check.h"

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/moe_layer.h"
#include "tensor/random_init.h"
#include "core/strategy_selector.h"
#include "runtime/trainer.h"
#include "sim/cluster.h"
#include "sim/graph_executor.h"
#include "sim/profile.h"
#include "sim/trace.h"

namespace mpipe::sim {
namespace {

/// Three-op timed chain (compute -> comm -> memcpy on device 0/1) whose
/// simulated durations are exact: base_seconds with no overlap.
OpGraph three_class_chain() {
  OpGraph g;
  g.add("gemm", OpCategory::kGemm, StreamKind::kCompute, {0}, 1e-3, {});
  g.add("a2a", OpCategory::kAllToAll, StreamKind::kComm, {0, 1}, 2e-3, {0});
  g.add("d2h", OpCategory::kMemcpyD2H, StreamKind::kMem, {1}, 3e-3, {1});
  return g;
}

/// Hand-built profile with exact nanosecond samples for the chain above.
ExecutionProfile handmade_profile(std::int64_t comp_ns, std::int64_t comm_ns,
                                  std::int64_t mem_ns) {
  ExecutionProfile p;
  p.begin(3);
  const std::int64_t origin = ExecutionProfile::now_ns();
  p.record(0, 0, origin, origin + comp_ns);
  p.record(1, 1, origin + comp_ns, origin + comp_ns + comm_ns);
  p.record(2, 0, origin + comp_ns + comm_ns,
           origin + comp_ns + comm_ns + mem_ns);
  return p;
}

TEST(MeasuredTimeline, ReconstructsMakespanCriticalPathAndOccupancy) {
  OpGraph g = three_class_chain();
  // 1ms compute, 2ms comm, 3ms memcpy, back to back.
  ExecutionProfile p = handmade_profile(1'000'000, 2'000'000, 3'000'000);
  const MeasuredTimeline tl = build_timeline(g, p, 2);

  EXPECT_NEAR(tl.makespan, 6e-3, 1e-12);
  ASSERT_EQ(tl.ops.size(), 3u);
  EXPECT_NEAR(tl.ops[0].seconds(), 1e-3, 1e-12);
  EXPECT_NEAR(tl.ops[1].seconds(), 2e-3, 1e-12);
  EXPECT_NEAR(tl.ops[2].seconds(), 3e-3, 1e-12);
  EXPECT_EQ(tl.ops[1].worker, 1);

  // The chain is the critical path, in order.
  EXPECT_EQ(tl.critical_path, (std::vector<int>{0, 1, 2}));
  EXPECT_NEAR(tl.critical_path_seconds, 6e-3, 1e-12);

  // Occupancy: device 0 ran compute 1ms + comm 2ms of the 6ms span;
  // device 1 ran comm 2ms + memcpy 3ms.
  EXPECT_NEAR(tl.stream_occupancy(0, StreamKind::kCompute), 1.0 / 6.0, 1e-9);
  EXPECT_NEAR(tl.stream_occupancy(0, StreamKind::kComm), 2.0 / 6.0, 1e-9);
  EXPECT_NEAR(tl.stream_occupancy(1, StreamKind::kMem), 3.0 / 6.0, 1e-9);
  EXPECT_NEAR(tl.stream_occupancy(0, StreamKind::kMem), 0.0, 1e-12);
}

TEST(ScheduleDiff, PerClassRatiosAndMakespanError) {
  OpGraph g = three_class_chain();
  Cluster cluster = Cluster::dgx_a100_pod(1, 2);
  const TimingResult sim = cluster.time_only(g);
  // Measured: compute 2x the modeled 1ms, comm exactly the modeled 2ms,
  // memcpy half the modeled 3ms.
  ExecutionProfile p = handmade_profile(2'000'000, 2'000'000, 1'500'000);
  const MeasuredTimeline tl = build_timeline(g, p, 2);
  const ScheduleDiff diff = diff_schedules(g, sim, tl);

  ASSERT_EQ(diff.ops.size(), 3u);
  EXPECT_NEAR(diff.simulated_makespan, 6e-3, 1e-9);
  EXPECT_NEAR(diff.measured_makespan, 5.5e-3, 1e-9);
  EXPECT_NEAR(diff.class_ratio(OpClass::kCompute), 2.0, 1e-6);
  EXPECT_NEAR(diff.class_ratio(OpClass::kComm), 1.0, 1e-6);
  EXPECT_NEAR(diff.class_ratio(OpClass::kMemcpy), 0.5, 1e-6);
  // No host ops ran: no evidence, identity ratio.
  EXPECT_EQ(diff.class_ratio(OpClass::kHost), 1.0);
  EXPECT_NEAR(diff.makespan_error(), (5.5 - 6.0) / 6.0, 1e-6);
  EXPECT_NE(diff.summary().find("compute"), std::string::npos);
}

TEST(CorrectionFit, FitsRatiosAndKeepsIdentityWithoutEvidence) {
  OpGraph g = three_class_chain();
  Cluster cluster = Cluster::dgx_a100_pod(1, 2);
  const TimingResult sim = cluster.time_only(g);

  CorrectionFit fit;
  // Two profiled steps with consistent 2x compute / 1x comm / 0.5x memcpy.
  for (int step = 0; step < 2; ++step) {
    ExecutionProfile p = handmade_profile(2'000'000, 2'000'000, 1'500'000);
    fit.add(diff_schedules(g, sim, build_timeline(g, p, 2)));
  }
  EXPECT_EQ(fit.steps(), 2);
  const OpClassCorrections c = fit.fit();
  EXPECT_NEAR(c.compute, 2.0, 1e-6);
  EXPECT_NEAR(c.comm, 1.0, 1e-6);
  EXPECT_NEAR(c.memcpy, 0.5, 1e-6);
  EXPECT_FALSE(c.identity());

  // A perfectly modeled step fits the identity.
  CorrectionFit exact;
  ExecutionProfile p = handmade_profile(1'000'000, 2'000'000, 3'000'000);
  exact.add(diff_schedules(g, sim, build_timeline(g, p, 2)));
  const OpClassCorrections id = exact.fit();
  EXPECT_NEAR(id.compute, 1.0, 1e-6);
  EXPECT_NEAR(id.comm, 1.0, 1e-6);
  EXPECT_NEAR(id.memcpy, 1.0, 1e-6);

  // An empty fit (no profiled steps at all) is the identity by definition.
  EXPECT_TRUE(CorrectionFit{}.fit().identity());
}

TEST(Corrections, ApplyScalesOpCostsByClassAndIdentityIsExactNoop) {
  OpGraph g = three_class_chain();
  g.add("router", OpCategory::kHostCompute, StreamKind::kCompute, {0}, 5e-4,
        {});
  OpClassCorrections c;
  c.compute = 2.0;
  c.comm = 3.0;
  c.memcpy = 0.5;
  apply_corrections(g, c);
  EXPECT_NEAR(g.op(0).base_seconds, 2e-3, 1e-12);   // gemm x2
  EXPECT_NEAR(g.op(1).base_seconds, 6e-3, 1e-12);   // alltoall x3
  EXPECT_NEAR(g.op(2).base_seconds, 1.5e-3, 1e-12); // memcpy x0.5
  EXPECT_NEAR(g.op(3).base_seconds, 5e-4, 1e-12);   // host: never corrected

  OpGraph untouched = three_class_chain();
  apply_corrections(untouched, OpClassCorrections{});
  for (int id = 0; id < untouched.size(); ++id) {
    EXPECT_EQ(untouched.op(id).base_seconds,
              three_class_chain().op(id).base_seconds);
  }

  OpClassCorrections bad;
  bad.comm = 0.0;
  OpGraph g2 = three_class_chain();
  EXPECT_THROW(apply_corrections(g2, bad), CheckError);
}

TEST(Corrections, ChromeTraceCarriesMeasuredAndSimulatedTracks) {
  OpGraph g = three_class_chain();
  Cluster cluster = Cluster::dgx_a100_pod(1, 2);
  const TimingResult sim = cluster.time_only(g);
  ExecutionProfile p = handmade_profile(1'000'000, 2'000'000, 3'000'000);
  const MeasuredTimeline tl = build_timeline(g, p, 2);
  const std::string json = to_chrome_trace(g, sim, tl);
  EXPECT_NE(json.find("\"name\":\"gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sim:gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace mpipe::sim

namespace mpipe::core {
namespace {

/// Speeds that make the offload strategy S1 win under the raw model: fast
/// compute and memcpy, so keeping T_DI/T_M in host memory costs less than
/// S4's extra recompute GEMM + extra AllToAll.
PerfModelParams s1_friendly_params() {
  PerfModelParams p;
  p.w_comp = 1e13;
  p.w_comm = 1e11;
  p.w_mem = 1e11;
  return p;
}

TEST(SelectorCorrections, IdentityCorrectionsAreAnExactNoop) {
  StrategySelector plain(s1_friendly_params());
  StrategySelector corrected(s1_friendly_params(), sim::OpClassCorrections{});
  const auto a = plain.select(4096, 1024, 4096);
  const auto b = corrected.select(4096, 1024, 4096);
  EXPECT_EQ(a.strategy, b.strategy);
  ASSERT_EQ(a.candidate_costs.size(), b.candidate_costs.size());
  for (std::size_t i = 0; i < a.candidate_costs.size(); ++i) {
    // Bitwise: the identity path must not even reorder the arithmetic.
    EXPECT_EQ(a.candidate_costs[i], b.candidate_costs[i]);
  }
}

TEST(SelectorCorrections, MisModeledMemcpyFlipsTheRankingToRecompute) {
  // Synthetic mis-modeled workload: the model thinks PCIe is fast (S1
  // offloading wins), but profiled steps measured memcpy 100x slower than
  // modeled. With the correction installed the mem stream becomes the
  // bottleneck for every offload strategy and the selector must flip to
  // S4 (recompute + re-communicate, mem stream idle).
  StrategySelector uncorrected(s1_friendly_params());
  const auto before = uncorrected.select(4096, 1024, 4096);
  EXPECT_EQ(before.strategy, ReuseStrategy::kS1);

  sim::OpClassCorrections measured;
  measured.memcpy = 100.0;
  StrategySelector corrected(s1_friendly_params(), measured);
  const auto after = corrected.select(4096, 1024, 4096);
  EXPECT_EQ(after.strategy, ReuseStrategy::kS4);
  // The re-ranking happened because the offload candidates got costlier,
  // not because S4 got cheaper.
  EXPECT_GT(after.candidate_costs[0], before.candidate_costs[0]);  // S1
  EXPECT_EQ(after.candidate_costs[3], before.candidate_costs[3]);  // S4
}

TEST(SearcherCorrections, InvalidateDropsCachedVerdicts) {
  int trials = 0;
  GranularitySearcher searcher({1, 2}, [&](std::int64_t, int) {
    ++trials;
    return 1.0;
  });
  searcher.configure(64);
  const int before = trials;
  searcher.configure(64);
  EXPECT_EQ(trials, before);  // cache hit
  searcher.invalidate();
  EXPECT_EQ(searcher.stats().invalidations, 1u);
  searcher.configure(64);
  EXPECT_GT(trials, before);  // re-measured after the flush
}

core::MoELayerOptions small_layer_options() {
  core::MoELayerOptions o;
  o.d_model = 16;
  o.d_hidden = 32;
  o.num_experts = 4;
  o.num_partitions = 2;
  o.memory_reuse = true;
  o.strategy = ReuseStrategy::kS1;
  o.seed = 7;
  return o;
}

std::vector<Tensor> device_batches(int devices, std::int64_t b,
                                   std::int64_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> batches;
  for (int d = 0; d < devices; ++d) {
    batches.push_back(random_tokens(b, m, rng));
  }
  return batches;
}

TEST(LayerProfiling, StepReportCarriesBothMakespansAndTheirDiff) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  auto options = small_layer_options();
  options.profile_execution = true;
  options.trace_execution = true;
  core::MoELayer layer(cluster, options);

  auto inputs = device_batches(2, 32, options.d_model, 21);
  auto outputs = layer.forward(inputs);
  auto grads = device_batches(2, 32, options.d_model, 22);
  layer.backward(grads);

  const StepReport& rep = layer.last_report();
  EXPECT_TRUE(rep.profiled);
  EXPECT_GT(rep.step_seconds(), 0.0);                // modeled
  EXPECT_GT(rep.measured_step_seconds(), 0.0);       // measured
  EXPECT_FALSE(rep.forward_diff.ops.empty());
  EXPECT_FALSE(rep.backward_diff.ops.empty());
  const sim::OpClassCorrections err = rep.model_error();
  EXPECT_GT(err.compute, 0.0);
  EXPECT_NE(rep.model_error_summary().find("measured/modeled"),
            std::string::npos);
  EXPECT_NE(rep.forward_trace_json.find("sim:"), std::string::npos);
  EXPECT_NE(rep.backward_trace_json.find("traceEvents"), std::string::npos);
}

TEST(LayerProfiling, TraceJsonIsGatedOnTraceExecution) {
  // Profiling fills timelines and diffs; the chrome-trace strings are
  // inspection output and stay empty unless trace_execution is also set.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  auto options = small_layer_options();
  options.profile_execution = true;  // trace_execution stays false
  core::MoELayer layer(cluster, options);
  auto inputs = device_batches(2, 32, options.d_model, 41);
  layer.forward(inputs);
  auto grads = device_batches(2, 32, options.d_model, 42);
  layer.backward(grads);
  const StepReport& rep = layer.last_report();
  EXPECT_TRUE(rep.profiled);
  EXPECT_FALSE(rep.forward_diff.ops.empty());
  EXPECT_TRUE(rep.forward_trace_json.empty());
  EXPECT_TRUE(rep.backward_trace_json.empty());
}

TEST(LayerProfiling, ProfilingDoesNotChangeTheMath) {
  auto run = [](bool profile) {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
    auto options = small_layer_options();
    options.profile_execution = profile;
    core::MoELayer layer(cluster, options);
    auto inputs = device_batches(2, 32, options.d_model, 31);
    auto outputs = layer.forward(inputs);
    auto grads = device_batches(2, 32, options.d_model, 32);
    auto dx = layer.backward(grads);
    std::vector<float> flat;
    for (const Tensor& t : outputs) {
      flat.insert(flat.end(), t.data(), t.data() + t.numel());
    }
    for (const Tensor& t : dx) {
      flat.insert(flat.end(), t.data(), t.data() + t.numel());
    }
    return flat;
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off[i], on[i]) << "value " << i;  // bitwise
  }
}

TEST(LayerProfiling, SetCorrectionsFlushesTheSearcherOnlyOnChange) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  auto options = small_layer_options();
  options.num_partitions = 0;  // adaptive: the searcher is live
  options.candidate_partitions = {1, 2, 4};
  options.mode = ExecutionMode::kTimingOnly;
  core::MoELayer layer(cluster, options);
  layer.step_timing(64);
  EXPECT_EQ(layer.searcher().stats().invalidations, 0u);

  layer.set_corrections(layer.corrections());  // unchanged: no flush
  EXPECT_EQ(layer.searcher().stats().invalidations, 0u);

  sim::OpClassCorrections c;
  c.compute = 1.5;
  layer.set_corrections(c);
  EXPECT_EQ(layer.searcher().stats().invalidations, 1u);
  EXPECT_EQ(layer.corrections().compute, 1.5);

  sim::OpClassCorrections bad;
  bad.memcpy = -1.0;
  EXPECT_THROW(layer.set_corrections(bad), CheckError);
}

TEST(TrainerCorrections, WarmupFitsInstallsAndRestoresProfiling) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  auto options = small_layer_options();
  core::MoELayer layer(cluster, options);

  runtime::TrainerOptions topt;
  topt.workload.d_model = options.d_model;
  topt.workload.tokens_per_device = 32;
  topt.workload.num_devices = 2;
  topt.steps = 4;
  topt.profile_warmup_steps = 2;
  runtime::Trainer trainer(layer, topt);

  EXPECT_FALSE(trainer.corrections_installed());
  trainer.run();
  EXPECT_TRUE(trainer.corrections_installed());
  const sim::OpClassCorrections& c = trainer.corrections();
  EXPECT_GT(c.compute, 0.0);
  EXPECT_GT(c.comm, 0.0);
  EXPECT_GT(c.memcpy, 0.0);
  // The fitted factors were handed to the layer verbatim.
  EXPECT_EQ(layer.corrections().compute, c.compute);
  EXPECT_EQ(layer.corrections().comm, c.comm);
  EXPECT_EQ(layer.corrections().memcpy, c.memcpy);
  // Warmup profiling is an override: the layer's own option was off, so
  // post-warmup steps run unprofiled again.
  EXPECT_FALSE(layer.options().profile_execution);
  EXPECT_EQ(trainer.metrics().measured_step_seconds().size(), 2u);
  EXPECT_GT(trainer.metrics().mean_measured_step_seconds(), 0.0);
}

TEST(TrainerCorrections, StoppingShortOfWarmupRestoresProfilingOverride) {
  // run() with fewer steps than profile_warmup_steps must not leave the
  // layer stuck in profiling mode: the override is restored after every
  // warmup step, and the (incomplete) fit is simply not installed.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  auto options = small_layer_options();
  core::MoELayer layer(cluster, options);
  runtime::TrainerOptions topt;
  topt.workload.d_model = options.d_model;
  topt.workload.tokens_per_device = 32;
  topt.workload.num_devices = 2;
  topt.steps = 1;
  topt.profile_warmup_steps = 3;
  runtime::Trainer trainer(layer, topt);
  trainer.run();
  EXPECT_FALSE(trainer.corrections_installed());
  EXPECT_TRUE(trainer.corrections().identity());
  EXPECT_FALSE(layer.options().profile_execution);
  EXPECT_FALSE(layer.options().trace_execution);
  // Resuming later still completes the warmup contract.
  trainer.train_step();
  trainer.train_step();
  EXPECT_TRUE(trainer.corrections_installed());
  EXPECT_FALSE(layer.options().profile_execution);
}

TEST(TrainerCorrections, WarmupLeavesFixedConfigurationNumericsBitwise) {
  // Corrections feed only the selectors; with n and the strategy pinned
  // the loss trajectory must be bitwise identical with and without the
  // warmup fit.
  auto losses = [](int warmup_steps) {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
    auto options = small_layer_options();
    core::MoELayer layer(cluster, options);
    runtime::TrainerOptions topt;
    topt.workload.d_model = options.d_model;
    topt.workload.tokens_per_device = 32;
    topt.workload.num_devices = 2;
    topt.workload.seed = 5;
    topt.steps = 4;
    topt.profile_warmup_steps = warmup_steps;
    runtime::Trainer trainer(layer, topt);
    trainer.run();
    return trainer.metrics().losses();
  };
  const auto without = losses(0);
  const auto with = losses(2);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    ASSERT_EQ(without[i], with[i]) << "step " << i;  // bitwise
  }
}

TEST(TrainerCorrections, AdaptiveLayerReRanksAfterWarmup) {
  // On an adaptive layer the installed corrections flush the granularity
  // cache, so the post-warmup step re-measures instead of replaying the
  // uncorrected verdicts.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  auto options = small_layer_options();
  options.num_partitions = 0;
  options.candidate_partitions = {1, 2, 4};
  core::MoELayer layer(cluster, options);

  runtime::TrainerOptions topt;
  topt.workload.d_model = options.d_model;
  topt.workload.tokens_per_device = 32;
  topt.workload.num_devices = 2;
  topt.steps = 3;
  topt.profile_warmup_steps = 2;
  runtime::Trainer trainer(layer, topt);
  trainer.run();
  EXPECT_TRUE(trainer.corrections_installed());
  // One flush from installing the fitted factors (unless the measured
  // factors happened to be exactly identity, which wall-clock noise makes
  // effectively impossible — but tolerate it rather than flake).
  if (!trainer.corrections().identity()) {
    EXPECT_EQ(layer.searcher().stats().invalidations, 1u);
  }
}

}  // namespace
}  // namespace mpipe::core
