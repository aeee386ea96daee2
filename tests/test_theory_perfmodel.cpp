// Equations 1–6 (memory theory), Table II workloads, the Eq-10 cost model
// and the adaptive strategy selector's qualitative behaviour.

#include <gtest/gtest.h>

#include "common/check.h"

#include "core/perf_model.h"
#include "core/strategy_selector.h"
#include "core/theory.h"

namespace mpipe::core {
namespace {

using mpipe::CheckError;

MemoryTheoryParams bert_like(std::int64_t b, int n) {
  MemoryTheoryParams p;
  p.d_model = 1024;
  p.d_hidden = 4096;
  p.num_experts = 64;
  p.experts_per_device = 1;
  p.tokens_per_device = b;
  p.n_partitions = n;
  return p;
}

TEST(MemoryTheory, Equation1ModelStates) {
  MemoryTheory t(bert_like(4096, 1));
  // 4 * (E*M + 2*H*M [+ small biases]) * 4 bytes.
  const std::uint64_t without_bias =
      4ull * (64 * 1024 + 2ull * 4096 * 1024) * 4;
  EXPECT_GE(t.model_states(), without_bias);
  EXPECT_LT(t.model_states(), without_bias + 4ull * (4096 + 1024) * 4 + 1);
}

TEST(MemoryTheory, Equations2And3Activations) {
  MemoryTheory t(bert_like(4096, 1));
  EXPECT_EQ(t.activations(),
            (4ull * 4096 * 1024 + 4096ull * 4096) * 4);
  EXPECT_EQ(t.temp_buffers(), (4096ull * 1024 + 4096ull * 4096) * 4);
  // Eq 4: pipeline temp = activations.
  EXPECT_EQ(t.pipeline_temp_buffers(), t.pipeline_activations());
}

TEST(MemoryTheory, Equation5SavingGrowsWithN) {
  const auto s2 = MemoryTheory(bert_like(4096, 2)).reuse_saving();
  const auto s4 = MemoryTheory(bert_like(4096, 4)).reuse_saving();
  const auto s8 = MemoryTheory(bert_like(4096, 8)).reuse_saving();
  EXPECT_LT(s2, s4);
  EXPECT_LT(s4, s8);
  EXPECT_EQ(MemoryTheory(bert_like(4096, 1)).reuse_saving(), 0u);
  // n=2: only the T_M term (H*(n-1)/n) survives.
  EXPECT_EQ(s2, static_cast<std::uint64_t>(4096.0 * 4096.0 / 2.0 * 4));
}

TEST(MemoryTheory, Equation6RatioInUnitIntervalAndMonotonicInB) {
  const double r_small = MemoryTheory(bert_like(1024, 4)).saving_ratio();
  const double r_large = MemoryTheory(bert_like(32768, 4)).saving_ratio();
  EXPECT_GT(r_small, 0.0);
  EXPECT_LT(r_large, 1.0);
  // Larger B makes activations dominate, so the ratio grows.
  EXPECT_GT(r_large, r_small);
}

TEST(TableII, WorkloadsMatchThePaper) {
  const auto none = workload_of(ReuseStrategy::kNone, 4);
  EXPECT_EQ(none.forward, (std::array<int, 3>{2, 2, 0}));
  EXPECT_EQ(none.backward, (std::array<int, 3>{4, 2, 0}));
  const auto s1 = workload_of(ReuseStrategy::kS1, 4);
  EXPECT_EQ(s1.forward, (std::array<int, 3>{2, 2, 5}));
  EXPECT_EQ(s1.backward, (std::array<int, 3>{4, 2, 5}));
  const auto s2 = workload_of(ReuseStrategy::kS2, 4);
  EXPECT_EQ(s2.forward, (std::array<int, 3>{2, 2, 4}));
  EXPECT_EQ(s2.backward, (std::array<int, 3>{4, 3, 4}));
  const auto s3 = workload_of(ReuseStrategy::kS3, 4);
  EXPECT_EQ(s3.forward, (std::array<int, 3>{2, 2, 1}));
  EXPECT_EQ(s3.backward, (std::array<int, 3>{5, 2, 1}));
  const auto s4 = workload_of(ReuseStrategy::kS4, 4);
  EXPECT_EQ(s4.forward, (std::array<int, 3>{2, 2, 0}));
  EXPECT_EQ(s4.backward, (std::array<int, 3>{5, 3, 0}));
}

TEST(TableII, InterferenceColumns) {
  PerfModelParams p;
  p.mu_comp = 0.72;
  p.mu_all = 0.71;
  p.eta_all = 0.71;
  PerfModel model(p);
  // Offload strategies see the all-streams factors; none/S4 the lighter.
  EXPECT_DOUBLE_EQ(model.factors(ReuseStrategy::kS1).mu, 0.71);
  EXPECT_DOUBLE_EQ(model.factors(ReuseStrategy::kS1).eta, 0.71);
  EXPECT_DOUBLE_EQ(model.factors(ReuseStrategy::kS4).mu, 0.72);
  EXPECT_DOUBLE_EQ(model.factors(ReuseStrategy::kS4).eta, 1.0);
  EXPECT_DOUBLE_EQ(model.factors(ReuseStrategy::kNone).mu, 0.72);
}

TEST(PerfModel, ComputeBoundFavoursOffload) {
  // Very slow compute, fast PCIe: the extra recompute GEMMs of S3/S4 are
  // the bottleneck, so S1 (all offload) must win.
  PerfModelParams p;
  p.w_comp = 1e12;
  p.w_comm = 1e12;
  p.w_mem = 1e12;
  StrategySelector selector(p);
  const auto choice = selector.select(4096, 1024, 4096);
  EXPECT_EQ(choice.strategy, ReuseStrategy::kS1);
}

TEST(PerfModel, MemBoundFavoursRecompute) {
  // Glacial PCIe: any offload strategy is mem-bound; S4 avoids the mem
  // stream entirely.
  PerfModelParams p;
  p.w_comp = 1e14;
  p.w_comm = 1e11;
  p.w_mem = 1e8;
  StrategySelector selector(p);
  const auto choice = selector.select(4096, 1024, 4096);
  EXPECT_EQ(choice.strategy, ReuseStrategy::kS4);
}

TEST(PerfModel, CommBoundPenalisesReCommunication) {
  // Very slow network: S2/S4's extra AllToAll dominates; between S1 and S3
  // both keep comm at 2 ops — the model must not pick S2 or S4.
  PerfModelParams p;
  p.w_comp = 1e14;
  p.w_comm = 1e9;
  p.w_mem = 1e11;
  StrategySelector selector(p);
  const auto choice = selector.select(4096, 1024, 4096);
  EXPECT_TRUE(choice.strategy == ReuseStrategy::kS1 ||
              choice.strategy == ReuseStrategy::kS3);
}

TEST(PerfModel, CostsScaleLinearlyInBatch) {
  PerfModelParams p;
  p.w_comp = 1e13;
  p.w_comm = 1e10;
  p.w_mem = 1e10;
  PerfModel model(p);
  const double c1 = model.step_cost(ReuseStrategy::kS3, 1024, 1024, 4096);
  const double c2 = model.step_cost(ReuseStrategy::kS3, 2048, 1024, 4096);
  EXPECT_NEAR(c2 / c1, 2.0, 1e-9);
}

TEST(PerfModel, CandidateCostsExposedForAllFour) {
  PerfModelParams p;
  StrategySelector selector(p);
  const auto choice = selector.select(128, 64, 256);
  ASSERT_EQ(choice.candidate_costs.size(), 4u);
  double best = choice.candidate_costs[0];
  for (double c : choice.candidate_costs) best = std::min(best, c);
  EXPECT_DOUBLE_EQ(best, choice.predicted_seconds);
}

TEST(PerfModel, MeasureFromClusterIsConsistent) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 4);
  const auto p = StrategySelector::measure(cluster, 1024);
  EXPECT_GT(p.w_comp, 0.0);
  EXPECT_GT(p.w_comm, 0.0);
  EXPECT_GT(p.w_mem, 0.0);
  EXPECT_NEAR(p.mu_comp, 0.72, 1e-9);
  EXPECT_NEAR(p.mu_all, 0.71, 1e-9);
  EXPECT_NEAR(p.eta_all, 0.71, 1e-9);
  // Larger micro-batches run GEMMs more efficiently.
  const auto p_small = StrategySelector::measure(cluster, 64);
  EXPECT_LT(p_small.w_comp, p.w_comp);
}

TEST(ReuseStrategyTraits, RestorePredicates) {
  EXPECT_FALSE(restores_tdi_by_comm(ReuseStrategy::kS1));
  EXPECT_TRUE(restores_tdi_by_comm(ReuseStrategy::kS2));
  EXPECT_FALSE(restores_tdi_by_comm(ReuseStrategy::kS3));
  EXPECT_TRUE(restores_tdi_by_comm(ReuseStrategy::kS4));
  EXPECT_FALSE(restores_tm_by_recompute(ReuseStrategy::kS1));
  EXPECT_FALSE(restores_tm_by_recompute(ReuseStrategy::kS2));
  EXPECT_TRUE(restores_tm_by_recompute(ReuseStrategy::kS3));
  EXPECT_TRUE(restores_tm_by_recompute(ReuseStrategy::kS4));
  EXPECT_TRUE(uses_offload(ReuseStrategy::kS1));
  EXPECT_TRUE(uses_offload(ReuseStrategy::kS2));
  EXPECT_TRUE(uses_offload(ReuseStrategy::kS3));
  EXPECT_FALSE(uses_offload(ReuseStrategy::kS4));
  EXPECT_EQ(to_string(ReuseStrategy::kS3), "S3");
}

}  // namespace
}  // namespace mpipe::core
