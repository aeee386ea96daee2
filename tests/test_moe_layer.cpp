// Core correctness of the MPipeMoE layer: the pipelined, memory-reused
// execution must be numerically identical to a direct (unpipelined)
// reference evaluation of the same gating + experts, for every partition
// count and every restore strategy.

#include <gtest/gtest.h>

#include <cstring>

#include "core/moe_layer.h"
#include "moe/dispatcher.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

struct LayerCase {
  int devices;
  int experts;
  int partitions;          // 0 = adaptive
  core::ReuseStrategy strategy;
  bool memory_reuse;
};

std::string case_name(const testing::TestParamInfo<LayerCase>& info) {
  const LayerCase& c = info.param;
  return "P" + std::to_string(c.devices) + "E" + std::to_string(c.experts) +
         "n" + std::to_string(c.partitions) +
         (c.memory_reuse ? core::to_string(c.strategy) : std::string("raw"));
}

core::MoELayerOptions small_options(const LayerCase& c) {
  core::MoELayerOptions o;
  o.d_model = 16;
  o.d_hidden = 48;
  o.num_experts = c.experts;
  o.num_partitions = c.partitions;
  o.pipeline = true;
  o.memory_reuse = c.memory_reuse;
  if (c.memory_reuse) o.strategy = c.strategy;
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

/// Direct evaluation: per token, run the routed expert's FFN and scale by
/// the gate — no dispatch, no pipeline, no reuse.
std::vector<Tensor> reference_forward(core::MoELayer& layer,
                                      const std::vector<Tensor>& inputs) {
  const int epd = layer.experts_per_device();
  std::vector<Tensor> outputs;
  for (int d = 0; d < layer.num_devices(); ++d) {
    const Tensor& x = inputs[static_cast<std::size_t>(d)];
    const auto gating = layer.gate(d).forward(x);
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
    outputs.push_back(std::move(out));
  }
  return outputs;
}

class MoELayerParity : public testing::TestWithParam<LayerCase> {};

TEST_P(MoELayerParity, ForwardMatchesReference) {
  const LayerCase c = GetParam();
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, c.devices);
  core::MoELayer layer(cluster, small_options(c));
  auto inputs = make_inputs(c.devices, 33, 16, 99);
  auto expected = reference_forward(layer, inputs);
  auto outputs = layer.forward(inputs);
  ASSERT_EQ(outputs.size(), expected.size());
  for (std::size_t d = 0; d < outputs.size(); ++d) {
    EXPECT_LT(max_abs_diff(outputs[d], expected[d]), 2e-5f)
        << "device " << d;
  }
  // Consume the step so the next test starts clean.
  std::vector<Tensor> grads;
  for (auto& out : outputs) grads.push_back(Tensor(out.shape()));
  layer.backward(grads);
}

TEST_P(MoELayerParity, StrategyReportsMatchConfiguration) {
  const LayerCase c = GetParam();
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, c.devices);
  core::MoELayer layer(cluster, small_options(c));
  auto inputs = make_inputs(c.devices, 32, 16, 5);
  auto outputs = layer.forward(inputs);
  std::vector<Tensor> grads;
  for (auto& out : outputs) grads.push_back(Tensor(out.shape()));
  layer.backward(grads);
  const auto& report = layer.last_report();
  if (c.partitions > 0) {
    EXPECT_EQ(report.n_partitions, c.partitions);
  }
  if (!c.memory_reuse || report.n_partitions <= 1) {
    EXPECT_EQ(report.strategy, core::ReuseStrategy::kNone);
  } else {
    EXPECT_EQ(report.strategy, c.strategy);
  }
  EXPECT_GT(report.forward_seconds, 0.0);
  EXPECT_GT(report.backward_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, MoELayerParity,
    testing::Values(
        LayerCase{2, 2, 1, core::ReuseStrategy::kNone, false},
        LayerCase{2, 4, 2, core::ReuseStrategy::kS1, true},
        LayerCase{4, 4, 1, core::ReuseStrategy::kNone, false},
        LayerCase{4, 4, 2, core::ReuseStrategy::kNone, false},
        LayerCase{4, 4, 4, core::ReuseStrategy::kNone, false},
        LayerCase{4, 4, 2, core::ReuseStrategy::kS1, true},
        LayerCase{4, 4, 4, core::ReuseStrategy::kS1, true},
        LayerCase{4, 4, 4, core::ReuseStrategy::kS2, true},
        LayerCase{4, 4, 4, core::ReuseStrategy::kS3, true},
        LayerCase{4, 4, 4, core::ReuseStrategy::kS4, true},
        LayerCase{4, 8, 3, core::ReuseStrategy::kS2, true},
        LayerCase{4, 8, 4, core::ReuseStrategy::kS3, true},
        LayerCase{8, 8, 4, core::ReuseStrategy::kS4, true},
        LayerCase{8, 16, 2, core::ReuseStrategy::kS1, true},
        LayerCase{3, 6, 3, core::ReuseStrategy::kS4, true}),
    case_name);

/// Every restore strategy must produce bit-identical gradients: the reuse
/// machinery may never change the math.
class StrategyGradientParity
    : public testing::TestWithParam<core::ReuseStrategy> {};

struct GradDump {
  std::vector<Tensor> dx;
  std::vector<Tensor> param_grads;
};

GradDump run_step(core::ReuseStrategy strategy, bool reuse, int partitions) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayerOptions o;
  o.d_model = 12;
  o.d_hidden = 36;
  o.num_experts = 8;
  o.num_partitions = partitions;
  o.memory_reuse = reuse;
  if (reuse) o.strategy = strategy;
  o.seed = 21;
  core::MoELayer layer(cluster, o);
  auto inputs = make_inputs(4, 25, 12, 1234);
  auto outputs = layer.forward(inputs);
  std::vector<Tensor> grads;
  Rng rng(77);
  for (auto& out : outputs) {
    Tensor g(out.shape());
    init_normal(g, rng, 1.0f);
    grads.push_back(g);
  }
  GradDump dump;
  dump.dx = layer.backward(grads);
  for (Tensor* g : layer.gradients()) dump.param_grads.push_back(g->clone());
  return dump;
}

TEST_P(StrategyGradientParity, MatchesNoReuseBaseline) {
  const auto baseline = run_step(core::ReuseStrategy::kNone, false, 4);
  const auto with_reuse = run_step(GetParam(), true, 4);
  ASSERT_EQ(baseline.dx.size(), with_reuse.dx.size());
  for (std::size_t d = 0; d < baseline.dx.size(); ++d) {
    EXPECT_LT(max_abs_diff(baseline.dx[d], with_reuse.dx[d]), 1e-5f)
        << "dx mismatch on device " << d;
  }
  ASSERT_EQ(baseline.param_grads.size(), with_reuse.param_grads.size());
  for (std::size_t i = 0; i < baseline.param_grads.size(); ++i) {
    EXPECT_LT(
        max_abs_diff(baseline.param_grads[i], with_reuse.param_grads[i]),
        1e-5f)
        << "param grad " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyGradientParity,
                         testing::Values(core::ReuseStrategy::kS1,
                                         core::ReuseStrategy::kS2,
                                         core::ReuseStrategy::kS3,
                                         core::ReuseStrategy::kS4),
                         [](const auto& info) {
                           return core::to_string(info.param);
                         });

/// Finite-difference check of the full distributed layer: perturb one
/// input element, compare (loss(x+h)-loss(x-h))/2h against dx.
TEST(MoELayerGradCheck, InputGradientFiniteDifference) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  core::MoELayerOptions o;
  o.d_model = 8;
  o.d_hidden = 16;
  o.num_experts = 4;
  o.num_partitions = 2;
  o.memory_reuse = true;
  o.strategy = core::ReuseStrategy::kS4;
  o.seed = 3;

  auto loss_of = [&](const std::vector<Tensor>& inputs) {
    core::MoELayer layer(cluster, o);
    auto outputs = layer.forward(inputs);
    double loss = 0.0;
    for (auto& out : outputs) {
      for (std::int64_t i = 0; i < out.numel(); ++i) {
        loss += 0.5 * out.at(i) * out.at(i);
      }
    }
    std::vector<Tensor> grads;
    for (auto& out : outputs) grads.push_back(out.clone());
    layer.backward(grads);
    return loss;
  };

  auto inputs = make_inputs(2, 9, 8, 2024);
  // Analytic gradient.
  core::MoELayer layer(cluster, o);
  auto outputs = layer.forward(inputs);
  std::vector<Tensor> grads;
  for (auto& out : outputs) grads.push_back(out.clone());
  auto dx = layer.backward(grads);

  // Probe a handful of coordinates on each device.
  const float h = 1e-3f;
  for (int d = 0; d < 2; ++d) {
    for (std::int64_t idx : {std::int64_t(0), std::int64_t(13),
                             std::int64_t(40)}) {
      auto plus = inputs;
      plus[static_cast<std::size_t>(d)] =
          inputs[static_cast<std::size_t>(d)].clone();
      plus[static_cast<std::size_t>(d)].at(idx) += h;
      auto minus = inputs;
      minus[static_cast<std::size_t>(d)] =
          inputs[static_cast<std::size_t>(d)].clone();
      minus[static_cast<std::size_t>(d)].at(idx) -= h;
      const double numeric =
          (loss_of(plus) - loss_of(minus)) / (2.0 * h);
      const double analytic = dx[static_cast<std::size_t>(d)].at(idx);
      EXPECT_NEAR(numeric, analytic,
                  5e-2 * std::max(1.0, std::abs(numeric)))
          << "device " << d << " idx " << idx;
    }
  }
}

TEST(MoELayerMemory, ReuseNeverExceedsNoReuse) {
  for (int n : {2, 4}) {
    auto run = [&](bool reuse) {
      sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
      core::MoELayerOptions o;
      o.d_model = 16;
      o.d_hidden = 64;
      o.num_experts = 4;
      o.num_partitions = n;
      o.memory_reuse = reuse;
      if (reuse) o.strategy = core::ReuseStrategy::kS1;
      core::MoELayer layer(cluster, o);
      auto inputs = make_inputs(4, 64, 16, 8);
      auto outputs = layer.forward(inputs);
      std::vector<Tensor> grads;
      for (auto& out : outputs) grads.push_back(Tensor(out.shape()));
      layer.backward(grads);
      return layer.last_report().memory.total_peak;
    };
    const auto with_reuse = run(true);
    const auto without = run(false);
    EXPECT_LT(with_reuse, without) << "n=" << n;
  }
}

/// Received rows per (partition, device) of the plan `inputs` route to.
std::vector<std::int64_t> recv_rows_of(core::MoELayer& layer,
                                       const std::vector<Tensor>& inputs,
                                       int n) {
  std::vector<std::vector<std::int64_t>> expert_of;
  for (int d = 0; d < layer.num_devices(); ++d) {
    expert_of.push_back(
        layer.gate(d).forward(inputs[static_cast<std::size_t>(d)]).expert_of);
  }
  const moe::DispatchPlan plan = moe::Dispatcher::build(
      expert_of, layer.num_devices(), layer.experts_per_device(), n);
  std::vector<std::int64_t> rows;
  for (int p = 0; p < n; ++p) {
    for (std::int64_t r : plan.part(p).recv_rows) rows.push_back(r);
  }
  return rows;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(MoELayerMemory, OffloadStrategiesStageToHost) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  core::MoELayerOptions o;
  o.d_model = 8;
  o.d_hidden = 16;
  o.num_experts = 2;
  o.num_partitions = 2;
  o.memory_reuse = true;
  o.strategy = core::ReuseStrategy::kS1;
  core::MoELayer layer(cluster, o);
  // Two batches: the second routes more rows to some staging slots and
  // fewer to others, so the slots both grow and shrink between steps.
  const auto first = make_inputs(2, 16, 8, 11);
  const auto second = make_inputs(2, 16, 8, 12);
  const auto rows_first = recv_rows_of(layer, first, 2);
  const auto rows_second = recv_rows_of(layer, second, 2);
  bool grows = false, shrinks = false;
  for (std::size_t i = 0; i < rows_first.size(); ++i) {
    grows = grows || rows_second[i] > rows_first[i];
    shrinks = shrinks || rows_second[i] < rows_first[i];
  }
  ASSERT_TRUE(grows && shrinks);

  Rng rng(5);
  std::vector<Tensor> dys;
  for (int d = 0; d < 2; ++d) dys.push_back(random_tokens(16, 8, rng));
  std::vector<Tensor> ys, dxs;
  for (const auto* batch : {&first, &second}) {
    ys = layer.forward(*batch);
    // After forward, S1 has offloaded T_DI and T_M partitions to the host.
    EXPECT_GT(layer.staging().entries(), 0u);
    EXPECT_GT(layer.staging().bytes_stored(), 0u);
    dxs = layer.backward(dys);
    // Backward prefetched, and so emptied, every staged slot.
    EXPECT_EQ(layer.staging().entries(), 0u);
    EXPECT_EQ(layer.staging().bytes_stored(), 0u);
  }

  // Slots reused across steps restore exactly what a fresh store would.
  core::MoELayer fresh(cluster, o);
  const auto fresh_ys = fresh.forward(second);
  const auto fresh_dxs = fresh.backward(dys);
  for (int d = 0; d < 2; ++d) {
    const auto i = static_cast<std::size_t>(d);
    EXPECT_TRUE(bitwise_equal(ys[i], fresh_ys[i])) << "device " << d;
    EXPECT_TRUE(bitwise_equal(dxs[i], fresh_dxs[i])) << "device " << d;
  }
}

TEST(MoELayerTiming, TimingOnlyModeMatchesPaperScaleWithoutStorage) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(8, 8);
  core::MoELayerOptions o;
  o.d_model = 2048;
  o.d_hidden = 8192;
  o.num_experts = 64;
  o.num_partitions = 4;
  o.mode = core::ExecutionMode::kTimingOnly;
  core::MoELayer layer(cluster, o);
  const auto report = layer.step_timing(16384);
  EXPECT_GT(report.step_seconds(), 0.0);
  // 16k tokens * 2048 dims * 4 bytes * ~10 tensors would be gigabytes; the
  // accounting must see it even though no storage was touched.
  EXPECT_GT(report.memory.total_peak, 500ull * 1024 * 1024);
}

TEST(MoELayerTiming, PipelineBeatsSequentialOnLargeBatches) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(8, 8);
  auto time_with_n = [&](int n) {
    core::MoELayerOptions o;
    o.d_model = 2048;
    o.d_hidden = 8192;
    o.num_experts = 64;
    o.num_partitions = n;
    o.memory_reuse = false;
    o.mode = core::ExecutionMode::kTimingOnly;
    core::MoELayer layer(cluster, o);
    return layer.step_timing(16384).step_seconds();
  };
  EXPECT_LT(time_with_n(4), time_with_n(1));
}

}  // namespace
}  // namespace mpipe
