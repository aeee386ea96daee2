// Baseline correctness and the qualitative orderings the paper reports:
// FastMoE and FasterMoE produce the same numbers as MPipeMoE (same seed →
// same parameters), PipeMoE beats both in simulated time, FasterMoE uses
// more memory than FastMoE once shadowing replicates experts.

#include <gtest/gtest.h>

#include "baselines/fastermoe.h"
#include "baselines/fastmoe.h"
#include "common/check.h"
#include "core/moe_layer.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

std::vector<Tensor> make_inputs(int devices, std::int64_t tokens,
                                std::int64_t d_model, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (int d = 0; d < devices; ++d) {
    inputs.push_back(random_tokens(tokens, d_model, rng));
  }
  return inputs;
}

TEST(Baselines, FastMoEMatchesMPipeMoEForward) {
  sim::Cluster c1 = sim::Cluster::dgx_a100_pod(1, 4);
  sim::Cluster c2 = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayerOptions mo;
  mo.d_model = 12;
  mo.d_hidden = 24;
  mo.num_experts = 8;
  mo.num_partitions = 4;
  mo.memory_reuse = true;
  mo.strategy = core::ReuseStrategy::kS3;
  mo.seed = 5;
  core::MoELayer mpipe_layer(c1, mo);

  core::MoELayerOptions fo;
  fo.d_model = 12;
  fo.d_hidden = 24;
  fo.num_experts = 8;
  fo.seed = 5;
  baselines::FastMoELayer fast(c2, fo);

  auto inputs = make_inputs(4, 21, 12, 31);
  auto a = mpipe_layer.forward(inputs);
  auto b = fast.forward(inputs);
  for (std::size_t d = 0; d < a.size(); ++d) {
    EXPECT_LT(max_abs_diff(a[d], b[d]), 2e-5f) << "device " << d;
  }
}

TEST(Baselines, FasterMoEMatchesMPipeMoEForwardAndBackward) {
  sim::Cluster c1 = sim::Cluster::dgx_a100_pod(1, 4);
  sim::Cluster c2 = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayerOptions mo;
  mo.d_model = 12;
  mo.d_hidden = 24;
  mo.num_experts = 8;
  mo.num_partitions = 2;
  mo.memory_reuse = false;
  mo.seed = 5;
  core::MoELayer mpipe_layer(c1, mo);

  core::MoELayerOptions fo;
  fo.d_model = 12;
  fo.d_hidden = 24;
  fo.num_experts = 8;
  fo.seed = 5;
  baselines::FasterMoELayer faster(c2, fo);

  auto inputs = make_inputs(4, 19, 12, 77);
  auto a = mpipe_layer.forward(inputs);
  auto b = faster.forward(inputs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    EXPECT_LT(max_abs_diff(a[d], b[d]), 2e-5f) << "fwd device " << d;
  }
  std::vector<Tensor> grads;
  Rng rng(9);
  for (auto& out : a) {
    Tensor g(out.shape());
    init_normal(g, rng, 1.0f);
    grads.push_back(g);
  }
  auto da = mpipe_layer.backward(grads);
  auto db = faster.backward(grads);
  for (std::size_t d = 0; d < da.size(); ++d) {
    EXPECT_LT(max_abs_diff(da[d], db[d]), 1e-5f) << "bwd device " << d;
  }
}

TEST(Baselines, FasterMoERejectsMisshapedInputsAndGradients) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayerOptions fo;
  fo.d_model = 12;
  fo.d_hidden = 24;
  fo.num_experts = 8;
  fo.seed = 5;
  baselines::FasterMoELayer faster(cluster, fo);

  // Wrong width on one device, ragged batch sizes, wrong device count.
  auto inputs = make_inputs(4, 19, 12, 77);
  auto wide = inputs;
  wide[2] = Tensor(Shape{19, 13});
  EXPECT_THROW(faster.forward(wide), CheckError);
  auto ragged = inputs;
  ragged[1] = Tensor(Shape{18, 12});
  EXPECT_THROW(faster.forward(ragged), CheckError);
  EXPECT_THROW(faster.forward(make_inputs(3, 19, 12, 77)), CheckError);

  // A rejected forward leaves the layer usable.
  const auto outs = faster.forward(inputs);
  std::vector<Tensor> grads;
  for (const Tensor& out : outs) grads.emplace_back(out.shape());
  auto too_few = grads;
  too_few.pop_back();
  EXPECT_THROW(faster.backward(too_few), CheckError);
  auto misshaped = grads;
  misshaped[0] = Tensor(Shape{19, 11});
  EXPECT_THROW(faster.backward(misshaped), CheckError);
}

TEST(Baselines, RejectSettingsTheyWouldDrop) {
  // A baseline pins one unpipelined partition without reuse; a caller's
  // fixed partition count or strategy is refused, not silently replaced.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayerOptions o;
  o.d_model = 12;
  o.d_hidden = 24;
  o.num_experts = 8;
  o.num_partitions = 1;
  EXPECT_NO_THROW(baselines::FastMoELayer(cluster, o));
  EXPECT_NO_THROW(baselines::FasterMoELayer(cluster, o));
  for (int n : {2, 4}) {
    o.num_partitions = n;
    EXPECT_THROW(baselines::FastMoELayer(cluster, o), CheckError) << n;
    EXPECT_THROW(baselines::FasterMoELayer(cluster, o), CheckError) << n;
  }
  o.num_partitions = 0;
  o.strategy = core::ReuseStrategy::kS1;
  EXPECT_THROW(baselines::FastMoELayer(cluster, o), CheckError);
  EXPECT_THROW(baselines::FasterMoELayer(cluster, o), CheckError);
  // FasterMoE's P2P fragments move fp32 rows; FastMoE's AllToAll takes
  // the reduced wire format like MPipeMoE's.
  o.strategy.reset();
  o.compute_dtype = DType::kBF16;
  EXPECT_NO_THROW(baselines::FastMoELayer(cluster, o));
  EXPECT_THROW(baselines::FasterMoELayer(cluster, o), CheckError);
}

TEST(Baselines, FasterMoEParallelExecutionMatchesSerialBitwise) {
  // The P2P-fragmented baseline graphs run on the concurrent executor too
  // (their send/recv ops self-annotate from segment tables); parallel
  // execution must reproduce the serial reference bit for bit.
  auto run = [](bool parallel) {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayerOptions fo;
    fo.d_model = 12;
    fo.d_hidden = 24;
    fo.num_experts = 8;
    fo.parallel_execution = parallel;
    fo.seed = 5;
    baselines::FasterMoELayer faster(cluster, fo);
    auto inputs = make_inputs(4, 19, 12, 77);
    auto outs = faster.forward(inputs);
    std::vector<Tensor> grads;
    Rng rng(9);
    for (auto& out : outs) {
      Tensor g(out.shape());
      init_normal(g, rng, 1.0f);
      grads.push_back(g);
    }
    auto dx = faster.backward(grads);
    std::vector<float> flat;
    for (const Tensor& t : outs) {
      flat.insert(flat.end(), t.data(), t.data() + t.numel());
    }
    for (const Tensor& t : dx) {
      flat.insert(flat.end(), t.data(), t.data() + t.numel());
    }
    return flat;
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "element " << i;
  }
}

TEST(Baselines, PipeMoEFasterThanBaselinesAtPaperScale) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(8, 8);
  core::MoELayerOptions po;
  po.d_model = 2048;
  po.d_hidden = 8192;
  po.num_experts = 64;
  po.num_partitions = 0;  // adaptive
  po.memory_reuse = false;
  po.mode = core::ExecutionMode::kTimingOnly;
  core::MoELayer pipemoe(cluster, po);

  core::MoELayerOptions fo;
  fo.d_model = 2048;
  fo.d_hidden = 8192;
  fo.num_experts = 64;
  fo.mode = core::ExecutionMode::kTimingOnly;
  baselines::FastMoELayer fastmoe(cluster, fo);

  core::MoELayerOptions ro;
  ro.d_model = 2048;
  ro.d_hidden = 8192;
  ro.num_experts = 64;
  ro.mode = core::ExecutionMode::kTimingOnly;
  baselines::FasterMoELayer fastermoe(cluster, ro);

  const std::int64_t b = 8192;
  const double t_pipe = pipemoe.step_timing(b).step_seconds();
  const double t_fast = fastmoe.step_timing(b).step_seconds();
  const double t_faster = fastermoe.step_timing(b).step_seconds();
  EXPECT_LT(t_pipe, t_faster);
  EXPECT_LT(t_faster, t_fast);  // FasterMoE's pipeline beats FastMoE
}

TEST(Baselines, FasterMoEShadowingUsesMoreMemoryThanFastMoE) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 4);
  core::MoELayerOptions fo;
  fo.d_model = 1024;
  fo.d_hidden = 4096;
  fo.num_experts = 64;
  fo.mode = core::ExecutionMode::kTimingOnly;
  baselines::FastMoELayer fastmoe(cluster, fo);

  core::MoELayerOptions ro;
  ro.d_model = 1024;
  ro.d_hidden = 4096;
  ro.num_experts = 64;
  ro.mode = core::ExecutionMode::kTimingOnly;
  baselines::ShadowingConfig shadowing;
  shadowing.enabled = true;
  shadowing.threshold = 1.2;
  baselines::FasterMoELayer fastermoe(cluster, ro, shadowing);

  // Skewed routing makes device 0 hot, triggering shadowing.
  const auto fast_mem = fastmoe.step_timing(4096, 0.4).memory.total_peak;
  const auto faster_mem = fastermoe.step_timing(4096, 0.4).memory.total_peak;
  EXPECT_GT(faster_mem, fast_mem);
}

TEST(Baselines, FastMoETempPeakIsTheEagerFreeWalk) {
  // Serial execution frees each gradient tensor as soon as the next one is
  // produced: the backward's temp peak is dx (BM) plus the two adjacent
  // tensors of Eq 3 (BM + BH). The gradient scratch itself is untracked.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 4);
  core::MoELayerOptions fo;
  fo.d_model = 1024;
  fo.d_hidden = 4096;
  fo.num_experts = 64;
  fo.mode = core::ExecutionMode::kTimingOnly;
  baselines::FastMoELayer fastmoe(cluster, fo);
  const std::uint64_t B = 4096, M = 1024, H = 4096;
  for (double skew : {0.0, 0.4}) {
    const auto memory = fastmoe.step_timing(B, skew).memory;
    EXPECT_EQ(memory.temp_buffers, (B * M + B * (M + H)) * sizeof(float))
        << "skew " << skew;
  }
}

TEST(Baselines, FasterMoEModeledStepNumbersArePinned) {
  // FasterMoE's and FastMoE's modeled step time and footprint: their
  // schedules, throughput scales, step buffers and shadowing accounting
  // must reproduce these recorded values. Seconds carry a 1e-9 relative
  // tolerance (gcc and clang may contract floating-point expressions
  // differently); bytes are exact.
  struct Pin {
    double skew;
    double threshold;  ///< FasterMoE's shadowing threshold
    double forward_seconds;
    double backward_seconds;
    std::uint64_t total_peak;
    std::uint64_t model_states;
  };
  auto expect_pinned = [](const core::StepReport& r, const Pin& pin,
                          const char* system) {
    EXPECT_NEAR(r.forward_seconds, pin.forward_seconds,
                1e-9 * pin.forward_seconds)
        << system << " skew " << pin.skew;
    EXPECT_NEAR(r.backward_seconds, pin.backward_seconds,
                1e-9 * pin.backward_seconds)
        << system << " skew " << pin.skew;
    EXPECT_EQ(r.memory.total_peak, pin.total_peak)
        << system << " skew " << pin.skew;
    EXPECT_EQ(r.memory.model_states, pin.model_states)
        << system << " skew " << pin.skew;
  };
  const Pin faster_pins[] = {
      // Unskewed: no destination is hot, shadowing stays off.
      {0.0, 1.5, 0.0036294180947724743, 0.0055375046921712096,
       1311375360ull, 1075445760ull},
      // Skew 0.4: device 0 is hot and its expert is shadowed, adding the
      // replicated parameters to every device's model states.
      {0.4, 1.2, 0.0047433623400506475, 0.007966198085355921,
       1660420096ull, 1142554624ull},
  };
  for (const Pin& pin : faster_pins) {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 4);
    core::MoELayerOptions o;
    o.d_model = 1024;
    o.d_hidden = 4096;
    o.num_experts = 64;
    o.mode = core::ExecutionMode::kTimingOnly;
    baselines::ShadowingConfig shadowing;
    shadowing.threshold = pin.threshold;
    baselines::FasterMoELayer layer(cluster, o, shadowing);
    expect_pinned(layer.step_timing(4096, pin.skew), pin, "FasterMoE");
  }
  // FastMoE: the unpipelined pipeline schedule at CUDA-core compute and
  // grouped-AllToAll bandwidth (no shadowing; threshold unused).
  const Pin fast_pins[] = {
      {0.0, 0.0, 0.0052569409973987373, 0.0071472498170196963,
       1311375360ull, 1075445760ull},
      {0.4, 0.0, 0.0084236588489409129, 0.013294090020104052,
       1593311232ull, 1075445760ull},
  };
  for (const Pin& pin : fast_pins) {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 4);
    core::MoELayerOptions o;
    o.d_model = 1024;
    o.d_hidden = 4096;
    o.num_experts = 64;
    o.mode = core::ExecutionMode::kTimingOnly;
    baselines::FastMoELayer layer(cluster, o);
    expect_pinned(layer.step_timing(4096, pin.skew), pin, "FastMoE");
  }
}

TEST(Shadowing, SelectsHotDestinationsOnly) {
  baselines::ShadowingConfig cfg;
  cfg.threshold = 1.5;
  const auto none =
      baselines::select_shadowed({100, 100, 100, 100}, cfg);
  EXPECT_TRUE(none.shadowed.empty());

  const auto one = baselines::select_shadowed({400, 100, 100, 100}, cfg);
  ASSERT_EQ(one.shadowed.size(), 1u);
  EXPECT_EQ(one.shadowed[0], 0);
  EXPECT_TRUE(one.is_shadowed(0));
  EXPECT_FALSE(one.is_shadowed(1));
}

TEST(Shadowing, RespectsMaxShadowedAndDisabled) {
  baselines::ShadowingConfig cfg;
  cfg.threshold = 1.01;
  cfg.max_shadowed = 2;
  const auto capped =
      baselines::select_shadowed({500, 400, 300, 1, 1, 1}, cfg);
  EXPECT_LE(capped.shadowed.size(), 2u);

  cfg.enabled = false;
  const auto off = baselines::select_shadowed({500, 400, 300, 1}, cfg);
  EXPECT_TRUE(off.shadowed.empty());
}

TEST(Shadowing, BytesScaleWithExpertSize) {
  const auto small = baselines::shadow_bytes_per_destination(256, 1024, 1);
  const auto big = baselines::shadow_bytes_per_destination(512, 2048, 1);
  EXPECT_EQ(big, small * 4);
  const auto two = baselines::shadow_bytes_per_destination(256, 1024, 2);
  EXPECT_EQ(two, small * 2);
}

TEST(Baselines, HeterogeneousBandwidthHurtsFasterMoEMore) {
  // §III-B: FasterMoE's per-partition synchronisation wastes the fast
  // workers' bandwidth when links are heterogeneous; the fused AllToAll
  // pays the bottleneck once.
  sim::ClusterConfig slow_cfg;
  slow_cfg.topology.num_devices = 8;
  slow_cfg.topology.devices_per_node = 8;
  slow_cfg.topology.device_bw_scale = {1.0, 1.0, 1.0, 1.0,
                                       1.0, 1.0, 1.0, 0.4};
  sim::Cluster hetero(slow_cfg);
  sim::Cluster homo = sim::Cluster::dgx_a100_pod(1, 8);

  auto pipe_time = [&](sim::Cluster& cluster) {
    core::MoELayerOptions o;
    o.d_model = 2048;
    o.d_hidden = 8192;
    o.num_experts = 64;
    o.num_partitions = 4;
    o.memory_reuse = false;
    o.mode = core::ExecutionMode::kTimingOnly;
    core::MoELayer layer(cluster, o);
    return layer.step_timing(8192).step_seconds();
  };
  auto faster_time = [&](sim::Cluster& cluster) {
    core::MoELayerOptions o;
    o.d_model = 2048;
    o.d_hidden = 8192;
    o.num_experts = 64;
    o.mode = core::ExecutionMode::kTimingOnly;
    baselines::ShadowingConfig shadowing;
    shadowing.enabled = false;
    baselines::FasterMoELayer layer(cluster, o, shadowing);
    return layer.step_timing(8192).step_seconds();
  };
  const double pipe_slowdown = pipe_time(hetero) / pipe_time(homo);
  const double faster_slowdown = faster_time(hetero) / faster_time(homo);
  EXPECT_GT(faster_slowdown, pipe_slowdown * 0.99);
}

}  // namespace
}  // namespace mpipe
