// Property tests on the generated schedules: stream exclusivity, WAR-hazard
// ordering on reused ring slots, collective synchrony, strategy-specific op
// population, real comm/comp overlap once pipelining is on, and the hazard
// contract of the concurrent executor: every schedule the builder emits
// passes validate_hazards (and runs bitwise-identically in parallel), while
// a deliberately removed WAR edge is rejected.

#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "baselines/fastermoe.h"
#include "baselines/fastmoe.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/moe_layer.h"
#include "sim/graph_executor.h"
#include "tensor/gemm.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

struct ScheduleCase {
  int n;
  core::ReuseStrategy strategy;
};

class ScheduleInvariants : public testing::TestWithParam<ScheduleCase> {};

TEST_P(ScheduleInvariants, StreamsNeverOverlapAndOpsAllFinish) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 4);
  core::MoELayerOptions o;
  o.d_model = 1024;
  o.d_hidden = 4096;
  o.num_experts = 64;
  o.num_partitions = GetParam().n;
  o.memory_reuse = GetParam().strategy != core::ReuseStrategy::kNone;
  if (o.memory_reuse) o.strategy = GetParam().strategy;
  o.mode = core::ExecutionMode::kTimingOnly;
  core::MoELayer layer(cluster, o);

  // Reach into the same builder the layer uses.
  core::MoeStepContext ctx;
  ctx.mode = core::ExecutionMode::kTimingOnly;
  ctx.strategy = o.memory_reuse ? *o.strategy : core::ReuseStrategy::kNone;
  ctx.d_model = o.d_model;
  ctx.d_hidden = o.d_hidden;
  ctx.plan = moe::Dispatcher::synthetic(4096, cluster.num_devices(),
                                        64 / cluster.num_devices(),
                                        GetParam().n);
  ctx.dev.resize(static_cast<std::size_t>(cluster.num_devices()));
  core::PipelineScheduleBuilder builder(cluster);

  for (sim::OpGraph* graph :
       {new sim::OpGraph(builder.build_forward(ctx, {})),
        new sim::OpGraph(builder.build_backward(ctx, {}))}) {
    auto timing = cluster.time_only(*graph);
    // Every op ran to completion.
    for (const auto& ot : timing.op_times) {
      ASSERT_TRUE(ot.started());
      ASSERT_GE(ot.end, ot.start);
    }
    // In-order streams: ops sharing a (device, stream) never overlap.
    std::map<std::pair<int, int>, std::vector<int>> per_stream;
    for (const auto& op : graph->ops()) {
      for (int d : op.devices) {
        per_stream[{d, static_cast<int>(op.stream)}].push_back(op.id);
      }
    }
    for (const auto& [key, ids] : per_stream) {
      for (std::size_t i = 1; i < ids.size(); ++i) {
        const auto& prev = timing.op_times[static_cast<std::size_t>(
            ids[i - 1])];
        const auto& next =
            timing.op_times[static_cast<std::size_t>(ids[i])];
        EXPECT_GE(next.start, prev.end - 1e-12)
            << "stream overlap on device " << key.first;
      }
    }
    // Collectives occupy all participants for the same interval.
    for (const auto& op : graph->ops()) {
      if (op.devices.size() < 2) continue;
      const auto& ot = timing.op_times[static_cast<std::size_t>(op.id)];
      EXPECT_GT(ot.end, ot.start);
    }
    delete graph;
  }
}

TEST_P(ScheduleInvariants, WarOrderingOnRingSlots) {
  if (GetParam().strategy == core::ReuseStrategy::kNone) {
    GTEST_SKIP() << "no ring reuse without a strategy";
  }
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoeStepContext ctx;
  ctx.mode = core::ExecutionMode::kTimingOnly;
  ctx.strategy = GetParam().strategy;
  ctx.d_model = 1024;
  ctx.d_hidden = 4096;
  ctx.plan = moe::Dispatcher::synthetic(4096, 4, 16, GetParam().n);
  ctx.dev.resize(4);
  core::PipelineScheduleBuilder builder(cluster);
  sim::OpGraph fwd = builder.build_forward(ctx, {});
  auto timing = cluster.time_only(fwd);

  // T_DI slot reuse: S_{p} (writer of slot p%2) must start only after
  // C1_{p-2} (reader of the same slot) ended, on every device.
  auto find_ops = [&](const std::string& prefix) {
    std::map<std::string, int> out;
    for (const auto& op : fwd.ops()) {
      if (op.label.rfind(prefix, 0) == 0) out[op.label] = op.id;
    }
    return out;
  };
  const auto s_ops = find_ops("S");
  const auto c1_ops = find_ops("C1_");
  for (int p = 2; p < GetParam().n; ++p) {
    const auto writer = s_ops.find("S" + std::to_string(p));
    ASSERT_NE(writer, s_ops.end());
    const auto& w = timing.op_times[static_cast<std::size_t>(
        writer->second)];
    for (int d = 0; d < 4; ++d) {
      const auto reader = c1_ops.find("C1_" + std::to_string(p - 2) + ".d" +
                                      std::to_string(d));
      ASSERT_NE(reader, c1_ops.end());
      const auto& r = timing.op_times[static_cast<std::size_t>(
          reader->second)];
      EXPECT_GE(w.start, r.end - 1e-12)
          << "S" << p << " overwrote T_DI slot before C1_" << p - 2
          << ".d" << d << " finished";
    }
  }
}

TEST_P(ScheduleInvariants, StrategySpecificOpsPresent) {
  if (GetParam().strategy == core::ReuseStrategy::kNone ||
      GetParam().n < 2) {
    GTEST_SKIP();
  }
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoeStepContext ctx;
  ctx.mode = core::ExecutionMode::kTimingOnly;
  ctx.strategy = GetParam().strategy;
  ctx.d_model = 512;
  ctx.d_hidden = 2048;
  ctx.plan = moe::Dispatcher::synthetic(2048, 4, 16, GetParam().n);
  ctx.dev.resize(4);
  core::PipelineScheduleBuilder builder(cluster);
  sim::OpGraph fwd = builder.build_forward(ctx, {});
  sim::OpGraph bwd = builder.build_backward(ctx, {});

  auto count = [](const sim::OpGraph& graph, sim::OpCategory cat) {
    int c = 0;
    for (const auto& op : graph.ops()) {
      if (op.category == cat) ++c;
    }
    return c;
  };
  const bool offloads = core::uses_offload(GetParam().strategy);
  const bool recomm = core::restores_tdi_by_comm(GetParam().strategy);
  const bool recompute =
      core::restores_tm_by_recompute(GetParam().strategy);
  EXPECT_EQ(count(fwd, sim::OpCategory::kMemcpyD2H) > 0, offloads);
  EXPECT_EQ(count(bwd, sim::OpCategory::kMemcpyH2D) > 0, offloads);
  // Backward AllToAlls: 2n baseline (S', R') + n re-communication for
  // S2/S4, plus no others.
  const int n = GetParam().n;
  EXPECT_EQ(count(bwd, sim::OpCategory::kAllToAll),
            recomm ? 3 * n : 2 * n);
  // Recompute adds one GEMM per partition per device on top of the fused
  // backward GEMM and gating backward.
  const int base_gemms = n * 4 + 4;  // Cb per (p,d) + Gb per d
  EXPECT_EQ(count(bwd, sim::OpCategory::kGemm),
            recompute ? base_gemms + n * 4 : base_gemms);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScheduleInvariants,
    testing::Values(ScheduleCase{1, core::ReuseStrategy::kNone},
                    ScheduleCase{2, core::ReuseStrategy::kNone},
                    ScheduleCase{4, core::ReuseStrategy::kNone},
                    ScheduleCase{8, core::ReuseStrategy::kNone},
                    ScheduleCase{2, core::ReuseStrategy::kS1},
                    ScheduleCase{4, core::ReuseStrategy::kS1},
                    ScheduleCase{4, core::ReuseStrategy::kS2},
                    ScheduleCase{4, core::ReuseStrategy::kS3},
                    ScheduleCase{4, core::ReuseStrategy::kS4},
                    ScheduleCase{8, core::ReuseStrategy::kS2},
                    ScheduleCase{8, core::ReuseStrategy::kS4}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) +
             core::to_string(info.param.strategy);
    });

TEST_P(ScheduleInvariants, FunctionalSchedulesPassHazardValidation) {
  // Full-mode forward+backward under ExecutionPolicy::kParallel runs
  // validate_hazards on every graph before overlapping it — so a pass here
  // proves the builder's WAR edges cover all ring-slot reuse for this
  // (strategy, n). The parallel results must also match a serial twin
  // layer bitwise.
  const int n = GetParam().n;
  auto run_layer = [&](bool parallel) {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayerOptions o;
    o.d_model = 16;
    o.d_hidden = 32;
    o.num_experts = 4;
    o.num_partitions = n;
    o.memory_reuse = GetParam().strategy != core::ReuseStrategy::kNone;
    if (o.memory_reuse) o.strategy = GetParam().strategy;
    o.parallel_execution = parallel;
    o.seed = 17;
    core::MoELayer layer(cluster, o);

    Rng rng(91);
    std::vector<Tensor> inputs, dys;
    for (int d = 0; d < 4; ++d) {
      Tensor x(Shape{64, 16}), dy(Shape{64, 16});
      init_normal(x, rng);
      init_normal(dy, rng);
      inputs.push_back(x);
      dys.push_back(dy);
    }
    auto outs = layer.forward(inputs);
    auto grads = layer.backward(dys);
    std::vector<float> flat;
    for (const Tensor& t : outs) {
      flat.insert(flat.end(), t.data(), t.data() + t.numel());
    }
    for (const Tensor& t : grads) {
      flat.insert(flat.end(), t.data(), t.data() + t.numel());
    }
    for (int d = 0; d < 4; ++d) {
      for (Tensor* g : layer.expert(d, 0).gradients()) {
        flat.insert(flat.end(), g->data(), g->data() + g->numel());
      }
      const Tensor& gate_grad = layer.gate(d).weight_grad();
      flat.insert(flat.end(), gate_grad.data(),
                  gate_grad.data() + gate_grad.numel());
    }
    return flat;
  };
  const auto serial = run_layer(false);
  const auto parallel = run_layer(true);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Bitwise: the executor may only reorder work the graph proves
    // independent.
    ASSERT_EQ(serial[i], parallel[i]) << "element " << i;
  }
}

/// Minimal functional step context for inspecting builder-emitted graphs
/// directly: round-robin routing, unit gates, and materialised forward and
/// backward buffers — ring slots under a reuse strategy (S1 by default),
/// per-partition stashes under kNone.
struct FunctionalForwardFixture {
  static constexpr int kDevices = 4;
  static constexpr std::int64_t kTokens = 32;
  static constexpr std::int64_t kModel = 16;
  static constexpr std::int64_t kHidden = 32;

  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, kDevices);
  mem::HostStaging staging;
  std::deque<mem::DeviceAllocator> allocators;
  std::vector<std::vector<moe::ExpertFFN>> experts;
  std::vector<moe::GatingNetwork> gates;
  core::MoeStepContext ctx;
  core::LayerRefs refs;

  explicit FunctionalForwardFixture(
      int n, core::ReuseStrategy strategy = core::ReuseStrategy::kS1) {
    Rng rng(7);
    std::vector<std::vector<std::int64_t>> expert_of(
        kDevices, std::vector<std::int64_t>(kTokens));
    for (int d = 0; d < kDevices; ++d) {
      for (std::int64_t t = 0; t < kTokens; ++t) {
        expert_of[static_cast<std::size_t>(d)][static_cast<std::size_t>(t)] =
            (t + d) % kDevices;
      }
    }
    ctx.mode = core::ExecutionMode::kFull;
    ctx.strategy = strategy;
    ctx.d_model = kModel;
    ctx.d_hidden = kHidden;
    ctx.plan = moe::Dispatcher::build(expert_of, kDevices, 1, n);
    ctx.dev.resize(kDevices);
    const int depth = std::min(2, n);
    for (int d = 0; d < kDevices; ++d) {
      allocators.emplace_back(d);
      auto& alloc = allocators.back();
      auto& st = ctx.dev[static_cast<std::size_t>(d)];
      st.x = Tensor(Shape{kTokens, kModel});
      init_normal(st.x, rng);
      st.out = Tensor(Shape{kTokens, kModel});
      st.gating.expert_of = expert_of[static_cast<std::size_t>(d)];
      st.gating.gate.assign(static_cast<std::size_t>(kTokens), 1.0f);
      st.gating.probs = Tensor(Shape{kTokens, kDevices});
      st.dy = Tensor(Shape{kTokens, kModel});
      st.dx = Tensor(Shape{kTokens, kModel});
      st.dgate.assign(static_cast<std::size_t>(kTokens), 0.0f);
      // Ring slots at the device's worst partition with reuse, one slot
      // per partition at its own rows without.
      std::vector<std::int64_t> rows, chunks;
      for (int p = 0; p < n; ++p) {
        const auto& part = ctx.plan.part(p);
        rows.push_back(std::max<std::int64_t>(
            1, part.recv_rows[static_cast<std::size_t>(d)]));
        chunks.push_back(ctx.plan.part(ctx.reuse() ? 0 : p).chunk_rows);
      }
      auto ring = [&](int slots) {
        if (!ctx.reuse()) return rows;
        return std::vector<std::int64_t>(
            static_cast<std::size_t>(slots),
            *std::max_element(rows.begin(), rows.end()));
      };
      const auto act = mem::Category::kActivation;
      const auto temp = mem::Category::kTempBuffer;
      st.tdi.emplace(&alloc, ring(depth), kModel, act);
      st.tm.emplace(&alloc, ring(1), kHidden, act);
      st.tdo.emplace(&alloc, ring(depth), kModel, act);
      st.d_ys.emplace(&alloc, chunks, kModel, temp);
      st.d_tdo.emplace(&alloc, ring(depth), kModel, temp);
      st.d_tdi.emplace(&alloc, ring(depth), kModel, temp);
      std::vector<moe::ExpertFFN> dev_experts;
      Rng expert_rng = rng.fork();
      dev_experts.emplace_back(kModel, kHidden,
                               moe::ActivationKind::kReLU, expert_rng);
      experts.push_back(std::move(dev_experts));
      Rng gate_rng = rng.fork();
      gates.emplace_back(kModel, kDevices, gate_rng);
    }
    refs.experts = &experts;
    refs.gates = &gates;
    refs.staging = &staging;
  }
};

TEST(HazardValidator, RejectsBuilderGraphWithRemovedWarEdge) {
  // Strategy S1, n = 4: the forward schedule carries the WAR edges
  // Htdi_{p-2} -> S_p (the offload copy reads the T_DI ring slot S_p
  // rewrites, and no FIFO path orders a mem-stream op before a later comm
  // op). The intact graph must validate; dropping exactly those edges
  // from S2's dependency list must be rejected, naming the slot pair.
  FunctionalForwardFixture fixture(/*n=*/4);
  core::PipelineScheduleBuilder builder(fixture.cluster);
  sim::OpGraph intact = builder.build_forward(fixture.ctx, fixture.refs);
  EXPECT_NO_THROW(sim::validate_hazards(intact));

  sim::OpGraph broken = builder.build_forward(fixture.ctx, fixture.refs);
  std::vector<int> htdi0_ids;
  int s2_id = -1;
  for (const auto& op : broken.ops()) {
    if (op.label.rfind("Htdi0.", 0) == 0) htdi0_ids.push_back(op.id);
    if (op.label == "S2") s2_id = op.id;
  }
  ASSERT_EQ(htdi0_ids.size(), 4u);
  ASSERT_GE(s2_id, 0);
  auto& deps = broken.op(s2_id).deps;
  const std::size_t before = deps.size();
  for (int id : htdi0_ids) {
    deps.erase(std::remove(deps.begin(), deps.end(), id), deps.end());
  }
  ASSERT_EQ(deps.size(), before - htdi0_ids.size())
      << "expected the WAR edges to be present before removal";
  try {
    sim::validate_hazards(broken);
    FAIL() << "removed WAR edge must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("Htdi0"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("S2"), std::string::npos)
        << e.what();
  }
}

// ---- schedule fingerprints ---------------------------------------------------
// Every op the builders emit, pinned as one FNV-1a-64 hash per case: label,
// category, stream, devices, deps, cost (printed %.12g so compilers agree),
// efficiency, whether it carries a closure, and its declared reads/writes
// (buffer ids replaced by their first-seen ordinal within the graph, so
// addresses drop out), plus
// the context's accumulated AllToAll payload. A refactor of the builders
// must leave these hashes untouched.

class GraphHasher {
 public:
  void text(const std::string& s) {
    for (unsigned char c : s) mix(c);
    mix('|');
  }
  void integer(long long v) { text(std::to_string(v)); }
  void real(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    text(buf);
  }
  void access(const sim::BufferAccess& a) {
    const auto it = ordinals_.emplace(a.id, ordinals_.size()).first;
    integer(static_cast<long long>(it->second));
    integer(a.begin);
    integer(a.end);
  }
  /// Ordinals restart per graph: a buffer freed between two hashed graphs
  /// may hand its address to an unrelated one.
  void graph(const sim::OpGraph& g) {
    ordinals_.clear();
    integer(g.size());
    for (const sim::Op& op : g.ops()) {
      text(op.label);
      text(sim::to_string(op.category));
      integer(static_cast<int>(op.stream));
      for (int d : op.devices) integer(d);
      text("deps");
      for (int d : op.deps) integer(d);
      real(op.base_seconds);
      real(op.compute_efficiency);
      integer(op.fn != nullptr ? 1 : 0);
      text("r");
      for (const auto& a : op.reads) access(a);
      text("w");
      for (const auto& a : op.writes) access(a);
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
  std::map<const void*, std::size_t> ordinals_;
};

/// Hashes the graphs `builder` emits for `ctx`: the forward, then (unless
/// the step is forward-only) the backward, each followed by the payload
/// the context has accumulated so far.
void hash_step(GraphHasher& h, const core::ScheduleBuilder& builder,
               core::MoeStepContext& ctx, const core::LayerRefs& refs) {
  ctx.comm_payload_bytes = 0;
  h.graph(builder.build_forward(ctx, refs));
  h.integer(static_cast<long long>(ctx.comm_payload_bytes));
  if (ctx.forward_only) return;
  h.graph(builder.build_backward(ctx, refs));
  h.integer(static_cast<long long>(ctx.comm_payload_bytes));
}

core::MoeStepContext timing_context(const sim::Cluster& cluster, int n,
                                    core::ReuseStrategy strategy,
                                    double skew) {
  core::MoeStepContext ctx;
  ctx.mode = core::ExecutionMode::kTimingOnly;
  ctx.strategy = strategy;
  ctx.d_model = 1024;
  ctx.d_hidden = 4096;
  ctx.plan = moe::Dispatcher::synthetic(4096, cluster.num_devices(),
                                        64 / cluster.num_devices(), n, skew);
  ctx.dev.resize(static_cast<std::size_t>(cluster.num_devices()));
  return ctx;
}

TEST(ScheduleFingerprint, PipelineTimingOnly) {
  // Per (strategy, skew): n in {1, 2, 4} x {fp32, bf16, int8} x {training,
  // forward-only}, each through the default builder and a scaled one
  // (CUDA-core compute, grouped AllToAll).
  const sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 4);
  const core::PipelineScheduleBuilder plain(cluster);
  const core::PipelineScheduleBuilder scaled(cluster, 0.45, 0.6);
  const std::map<std::pair<core::ReuseStrategy, double>, std::string> want = {
      {{core::ReuseStrategy::kNone, 0.0}, "d86d626d62b89577"},
      {{core::ReuseStrategy::kNone, 0.4}, "fa647891f97eb302"},
      {{core::ReuseStrategy::kS1, 0.0}, "a7e1ef28ad4fb8af"},
      {{core::ReuseStrategy::kS1, 0.4}, "a410e7bd143600d6"},
      {{core::ReuseStrategy::kS2, 0.0}, "6663ce2b97af3f17"},
      {{core::ReuseStrategy::kS2, 0.4}, "b67d9905e9725e82"},
      {{core::ReuseStrategy::kS3, 0.0}, "df0c673078bfa0ab"},
      {{core::ReuseStrategy::kS3, 0.4}, "05b993d4ea9f4fdf"},
      {{core::ReuseStrategy::kS4, 0.0}, "a9e66bd201ffff61"},
      {{core::ReuseStrategy::kS4, 0.4}, "790c67b1b2d07e0d"},
  };
  for (const auto& [key, expected] : want) {
    const auto [strategy, skew] = key;
    GraphHasher h;
    for (int n : {1, 2, 4}) {
      for (DType dt : {DType::kF32, DType::kBF16, DType::kI8}) {
        for (bool forward_only : {false, true}) {
          for (const auto* builder : {&plain, &scaled}) {
            auto ctx = timing_context(cluster, n, strategy, skew);
            ctx.dtype = dt;
            ctx.forward_only = forward_only;
            hash_step(h, *builder, ctx, {});
          }
        }
      }
    }
    EXPECT_EQ(h.hex(), expected)
        << core::to_string(strategy) << " skew " << skew;
  }
}

TEST(ScheduleFingerprint, FasterMoETimingOnly) {
  const sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 4);
  const std::map<std::pair<bool, double>, std::string> want = {
      {{false, 0.0}, "dda4b1bee25d7aa9"},
      {{false, 0.4}, "e695603e55b2c033"},
      {{true, 0.0}, "dda4b1bee25d7aa9"},
      {{true, 0.4}, "08e37917b76ad7db"},
  };
  for (const auto& [key, expected] : want) {
    const auto [shadowing, skew] = key;
    baselines::ShadowingConfig config;
    config.enabled = shadowing;
    const baselines::FasterMoEScheduleBuilder builder(cluster, 0.45, config);
    auto ctx = timing_context(cluster, 1, core::ReuseStrategy::kNone, skew);
    GraphHasher h;
    hash_step(h, builder, ctx, {});
    EXPECT_EQ(h.hex(), expected) << "shadowing " << shadowing << " skew "
                                 << skew;
  }
}

TEST(ScheduleFingerprint, PipelineFunctional) {
  // Per strategy: n in {1, 2, 4} x {fp32, int8} x {training, forward-only}.
  const std::map<core::ReuseStrategy, std::string> want = {
      {core::ReuseStrategy::kNone, "06d6f70f2bc7bc4a"},
      {core::ReuseStrategy::kS1, "054f06e35c925132"},
      {core::ReuseStrategy::kS2, "93ed6172af35eea7"},
      {core::ReuseStrategy::kS3, "30ac1c6ff5f0bb8c"},
      {core::ReuseStrategy::kS4, "8f6c2f6c4538f08b"},
  };
  for (const auto& [strategy, expected] : want) {
    GraphHasher h;
    for (int n : {1, 2, 4}) {
      for (DType dt : {DType::kF32, DType::kI8}) {
        for (bool forward_only : {false, true}) {
          FunctionalForwardFixture fixture(n, strategy);
          fixture.ctx.dtype = dt;
          fixture.ctx.forward_only = forward_only;
          const core::PipelineScheduleBuilder builder(fixture.cluster);
          hash_step(h, builder, fixture.ctx, fixture.refs);
        }
      }
    }
    EXPECT_EQ(h.hex(), expected) << core::to_string(strategy);
  }
}

TEST(ScheduleFingerprint, FasterMoEFunctional) {
  FunctionalForwardFixture fixture(1, core::ReuseStrategy::kNone);
  const baselines::FasterMoEScheduleBuilder builder(fixture.cluster, 0.45,
                                                    {});
  GraphHasher h;
  hash_step(h, builder, fixture.ctx, fixture.refs);
  EXPECT_EQ(h.hex(), "79f4ce3c368c65e9");
}

// ---- step memory fingerprints ------------------------------------------------
// Every byte a step accounts, pinned as one FNV-1a-64 hash per case: the
// report's MemorySnapshot, each device's current and peak bytes per
// category, and the host-staging residency — after the forward and, where
// one runs, after the backward. A refactor of the step buffers must leave
// these hashes untouched.

void hash_memory(GraphHasher& h, core::MoELayer& layer) {
  const core::MemorySnapshot& s = layer.last_report().memory;
  for (std::uint64_t v : {s.model_states, s.activations, s.temp_buffers,
                          s.comm, s.total_peak}) {
    h.integer(static_cast<long long>(v));
  }
  for (int d = 0; d < layer.num_devices(); ++d) {
    const mem::MemoryTracker& t = layer.allocator(d).tracker();
    for (int c = 0; c < mem::kNumCategories; ++c) {
      const auto category = static_cast<mem::Category>(c);
      h.integer(static_cast<long long>(t.current(category)));
      h.integer(static_cast<long long>(t.peak(category)));
    }
    h.integer(static_cast<long long>(t.peak_total()));
  }
  h.integer(static_cast<long long>(layer.staging().bytes_stored()));
}

/// Per-device (rows, 16) normal inputs for a small full-mode layer.
std::vector<Tensor> small_batch(int devices, std::uint64_t seed,
                                std::int64_t rows = 32) {
  Rng rng(seed);
  std::vector<Tensor> xs;
  for (int d = 0; d < devices; ++d) {
    xs.emplace_back(Shape{rows, 16});
    init_normal(xs.back(), rng);
  }
  return xs;
}

/// Forward, then backward (unless `inference`), hashing after each.
void hash_functional_step(GraphHasher& h, core::MoELayer& layer,
                          bool inference) {
  const auto xs = small_batch(layer.num_devices(), 11);
  if (inference) {
    layer.forward_only(xs);
    hash_memory(h, layer);
    return;
  }
  const auto ys = layer.forward(xs);
  hash_memory(h, layer);
  std::vector<Tensor> dys;
  for (const Tensor& y : ys) {
    dys.emplace_back(y.shape());
    for (std::int64_t i = 0; i < dys.back().numel(); ++i) {
      dys.back().data()[i] = 1.0f;
    }
  }
  layer.backward(dys);
  hash_memory(h, layer);
}

TEST(StepMemoryFingerprint, PipelineStepTiming) {
  // Per strategy: n in {1, 2, 4} x {fp32, int8} x skew {0, 0.4}.
  const std::map<core::ReuseStrategy, std::string> want = {
      {core::ReuseStrategy::kNone, "53762d3b41bbd988"},
      {core::ReuseStrategy::kS1, "0150ac22e0fc4eb5"},
      {core::ReuseStrategy::kS2, "0150ac22e0fc4eb5"},
      {core::ReuseStrategy::kS3, "0150ac22e0fc4eb5"},
      {core::ReuseStrategy::kS4, "0150ac22e0fc4eb5"},
  };
  for (const auto& [strategy, expected] : want) {
    GraphHasher h;
    for (int n : {1, 2, 4}) {
      for (DType dt : {DType::kF32, DType::kI8}) {
        for (double skew : {0.0, 0.4}) {
          sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 4);
          core::MoELayerOptions o;
          o.num_partitions = n;
          o.memory_reuse = strategy != core::ReuseStrategy::kNone;
          if (o.memory_reuse) o.strategy = strategy;
          o.compute_dtype = dt;
          o.mode = core::ExecutionMode::kTimingOnly;
          core::MoELayer layer(cluster, o);
          layer.step_timing(4096, skew);
          hash_memory(h, layer);
        }
      }
    }
    EXPECT_EQ(h.hex(), expected) << core::to_string(strategy);
  }
}

TEST(StepMemoryFingerprint, Baselines) {
  // FastMoE and FasterMoE (shadowing on): timing-only steps at skew
  // {0, 0.4}, then a small functional forward/backward.
  GraphHasher fast, faster;
  for (double skew : {0.0, 0.4}) {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 4);
    core::MoELayerOptions fo;
    fo.mode = core::ExecutionMode::kTimingOnly;
    baselines::FastMoELayer fast_layer(cluster, fo);
    fast_layer.step_timing(4096, skew);
    hash_memory(fast, fast_layer);

    core::MoELayerOptions so;
    so.mode = core::ExecutionMode::kTimingOnly;
    baselines::ShadowingConfig shadowing;
    shadowing.enabled = true;
    baselines::FasterMoELayer faster_layer(cluster, so, shadowing);
    faster_layer.step_timing(4096, skew);
    hash_memory(faster, faster_layer);
  }
  {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayerOptions fo;
    fo.d_model = 16;
    fo.d_hidden = 32;
    fo.num_experts = 4;
    baselines::FastMoELayer layer(cluster, fo);
    hash_functional_step(fast, layer, /*inference=*/false);
  }
  {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayerOptions so;
    so.d_model = 16;
    so.d_hidden = 32;
    so.num_experts = 4;
    baselines::FasterMoELayer layer(cluster, so);
    hash_functional_step(faster, layer, /*inference=*/false);
  }
  EXPECT_EQ(fast.hex(), "c150000405dd7f5e");
  EXPECT_EQ(faster.hex(), "19c3f4c3af0cfc65");
}

TEST(StepMemoryFingerprint, FunctionalLayer) {
  // A small full-mode layer per strategy at n = 2: one forward/backward,
  // then one forward_only.
  const std::map<core::ReuseStrategy, std::string> want = {
      {core::ReuseStrategy::kNone, "58be29633f6e5523"},
      {core::ReuseStrategy::kS1, "b575447f2000f17d"},
      {core::ReuseStrategy::kS2, "12adbc69f358770d"},
      {core::ReuseStrategy::kS3, "ccc0fc9576175bb7"},
      {core::ReuseStrategy::kS4, "05830abddd54b641"},
  };
  for (const auto& [strategy, expected] : want) {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayerOptions o;
    o.d_model = 16;
    o.d_hidden = 32;
    o.num_experts = 4;
    o.num_partitions = 2;
    o.memory_reuse = strategy != core::ReuseStrategy::kNone;
    if (o.memory_reuse) o.strategy = strategy;
    core::MoELayer layer(cluster, o);
    GraphHasher h;
    hash_functional_step(h, layer, /*inference=*/false);
    hash_functional_step(h, layer, /*inference=*/true);
    EXPECT_EQ(h.hex(), expected) << core::to_string(strategy);
  }
}

// ---- multi-expert step fingerprint ------------------------------------------
// The functional fingerprints above route with one expert per device. This
// pins the bits of a step with several experts per device, where each
// device's receive rows hold more than one expert's tokens: outputs, dX
// and every gate and expert gradient, one FNV-1a-64 hash per case.

void hash_floats(GraphHasher& h, const Tensor& t) {
  h.integer(t.numel());
  const float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, p + i, sizeof(bits));
    h.integer(bits);
  }
}

TEST(MultiExpertStepFingerprint, OutputsAndGradients) {
  // Per (experts per device, strategy): n in {1, 2, 4} x {fp32, bf16,
  // int8}, one forward/backward each. Serial and parallel execution on a
  // 4-worker pool must both give the pinned hash. Every strategy restores
  // exactly what `none` keeps (T_DI in its wire format, T_M in fp32), so
  // all five share one hash per expert count.
  const std::map<std::pair<int, core::ReuseStrategy>, std::string> want = {
      {{2, core::ReuseStrategy::kNone}, "b3b55ccd6cea5585"},
      {{2, core::ReuseStrategy::kS1}, "b3b55ccd6cea5585"},
      {{2, core::ReuseStrategy::kS2}, "b3b55ccd6cea5585"},
      {{2, core::ReuseStrategy::kS3}, "b3b55ccd6cea5585"},
      {{2, core::ReuseStrategy::kS4}, "b3b55ccd6cea5585"},
      {{4, core::ReuseStrategy::kNone}, "50af9e99ae56eaed"},
      {{4, core::ReuseStrategy::kS1}, "50af9e99ae56eaed"},
      {{4, core::ReuseStrategy::kS2}, "50af9e99ae56eaed"},
      {{4, core::ReuseStrategy::kS3}, "50af9e99ae56eaed"},
      {{4, core::ReuseStrategy::kS4}, "50af9e99ae56eaed"},
  };
  constexpr int kDevices = 4;
  ThreadPool::reset_shared(4);
  for (const auto& [key, expected] : want) {
    const auto [experts_per_device, strategy] = key;
    for (bool parallel : {false, true}) {
      GraphHasher h;
      for (int n : {1, 2, 4}) {
        for (DType dt : {DType::kF32, DType::kBF16, DType::kI8}) {
          sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, kDevices);
          core::MoELayerOptions o;
          o.d_model = 16;
          o.d_hidden = 32;
          o.num_experts = kDevices * experts_per_device;
          o.num_partitions = n;
          o.memory_reuse = strategy != core::ReuseStrategy::kNone;
          if (o.memory_reuse) o.strategy = strategy;
          o.compute_dtype = dt;
          o.parallel_execution = parallel;
          core::MoELayer layer(cluster, o);
          const auto ys = layer.forward(small_batch(kDevices, 11));
          const auto dxs = layer.backward(small_batch(kDevices, 12));
          for (const Tensor& y : ys) hash_floats(h, y);
          for (const Tensor& dx : dxs) hash_floats(h, dx);
          for (const Tensor* g : layer.gradients()) hash_floats(h, *g);
        }
      }
      EXPECT_EQ(h.hex(), expected)
          << experts_per_device << " experts per device, "
          << core::to_string(strategy)
          << (parallel ? ", parallel" : ", serial");
    }
  }
  ThreadPool::reset_shared(0);  // restore the machine-sized pool
}

// ---- persistent step storage ---------------------------------------------------
// The layer backs its ring slots with storage that outlives a step: it only
// grows and is never cleared, and each step lays its slots out afresh. So
// a layer that has run other batch sizes, and steps that failed part-way,
// must still produce the bits of a fresh layer on the same batch.

/// Hash of one forward_only, then one forward/backward from zeroed
/// gradients: its outputs, dX and every parameter gradient.
std::string step_hash(core::MoELayer& layer, const std::vector<Tensor>& xs,
                      const std::vector<Tensor>& dys) {
  GraphHasher h;
  for (const Tensor& y : layer.forward_only(xs)) hash_floats(h, y);
  layer.zero_grad();
  for (const Tensor& y : layer.forward(xs)) hash_floats(h, y);
  for (const Tensor& dx : layer.backward(dys)) hash_floats(h, dx);
  for (const Tensor* g : layer.gradients()) hash_floats(h, *g);
  return h.hex();
}

/// Fails the next allocation on device `d`.
void inject_oom(core::MoELayer& layer, int d) {
  FaultInjectionConfig cfg;
  cfg.alloc_failure_prob = 1.0;
  cfg.max_alloc_failures = 1;
  layer.allocator(d).set_fault_injector(
      std::make_shared<const FaultInjector>(cfg));
}

TEST(PersistentStepStorage, StepsMatchAFreshLayer) {
  struct Case {
    bool pipeline;
    core::ReuseStrategy strategy;
  };
  constexpr int kDevices = 4;
  const std::vector<Case> cases = {
      {false, core::ReuseStrategy::kNone}, {true, core::ReuseStrategy::kNone},
      {true, core::ReuseStrategy::kS1},    {true, core::ReuseStrategy::kS2},
      {true, core::ReuseStrategy::kS3},    {true, core::ReuseStrategy::kS4},
  };
  ThreadPool::reset_shared(4);
  for (const Case& c : cases) {
    for (DType dt : {DType::kF32, DType::kBF16}) {
      for (bool parallel : {false, true}) {
        core::MoELayerOptions o;
        o.d_model = 16;
        o.d_hidden = 32;
        o.num_experts = 2 * kDevices;
        o.pipeline = c.pipeline;
        o.num_partitions = c.pipeline ? 4 : 1;
        o.memory_reuse = c.strategy != core::ReuseStrategy::kNone;
        if (o.memory_reuse) o.strategy = c.strategy;
        o.compute_dtype = dt;
        o.parallel_execution = parallel;
        const std::string label =
            std::string(c.pipeline ? "" : "no pipeline, ") +
            core::to_string(c.strategy) + ", " + to_string(dt) +
            (parallel ? ", parallel" : ", serial");
        sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, kDevices);
        core::MoELayer layer(cluster, o);
        std::uint64_t seed = 100;
        for (std::int64_t rows : {384, 128, 384, 1}) {
          if (rows == 128) {
            // Two failed steps at a larger batch, which grows the storage:
            // one fails setting up the forward on the last device, after
            // the others took their slots; one fails setting up the
            // backward, after the forward wrote every slot. Only the
            // accounting unwinds.
            const auto big = small_batch(kDevices, 7, 512);
            inject_oom(layer, kDevices - 1);
            EXPECT_THROW(layer.forward(big), mem::OutOfMemoryError) << label;
            layer.allocator(kDevices - 1).set_fault_injector(nullptr);
            layer.forward(big);
            inject_oom(layer, kDevices - 1);
            EXPECT_THROW(layer.backward(big), mem::OutOfMemoryError) << label;
            layer.allocator(kDevices - 1).set_fault_injector(nullptr);
            for (int d = 0; d < kDevices; ++d) {
              const auto& t = layer.allocator(d).tracker();
              EXPECT_EQ(t.current(mem::Category::kActivation), 0u) << label;
              EXPECT_EQ(t.current(mem::Category::kTempBuffer), 0u) << label;
            }
          }
          const auto xs = small_batch(kDevices, seed++, rows);
          const auto dys = small_batch(kDevices, seed++, rows);
          sim::Cluster fresh_cluster = sim::Cluster::dgx_a100_pod(1, kDevices);
          core::MoELayer fresh(fresh_cluster, o);
          EXPECT_EQ(step_hash(layer, xs, dys), step_hash(fresh, xs, dys))
              << label << ", B = " << rows;
        }
      }
    }
  }
  ThreadPool::reset_shared(0);  // restore the machine-sized pool
}

TEST(NestedParallelism, PipelinePartitionGemmRunsWithoutDeadlock) {
  // The pipeline executor fans partitions out over the shared pool; each
  // partition body then calls the packed GEMM, which issues its own
  // parallel_for on the same pool. The pool must run the nested level
  // inline on workers (and let the caller participate) instead of
  // deadlocking on its own queue.
  Rng rng(5);
  Tensor a(Shape{96, 64}), b(Shape{64, 80});
  init_normal(a, rng);
  init_normal(b, rng);
  const Tensor want = matmul(a, b);

  constexpr int kPartitions = 4;
  std::vector<Tensor> outs;
  outs.reserve(kPartitions);
  for (int p = 0; p < kPartitions; ++p) {
    outs.emplace_back(Shape{96, 80});
  }
  ThreadPool::shared().parallel_for(
      kPartitions,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          gemm(a, b, outs[p]);
        }
      },
      /*grain=*/1);
  for (const Tensor& out : outs) {
    EXPECT_TRUE(allclose(out, want, 1e-5f, 1e-6f));
  }
}

TEST(ScheduleOverlap, PipelineOverlapsCommAndCompute) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(8, 8);
  auto report_for = [&](int n) {
    core::MoELayerOptions o;
    o.d_model = 2048;
    o.d_hidden = 8192;
    o.num_experts = 64;
    o.num_partitions = n;
    o.memory_reuse = false;
    o.mode = core::ExecutionMode::kTimingOnly;
    core::MoELayer layer(cluster, o);
    return layer.step_timing(16384);
  };
  const auto serial = report_for(1);
  const auto piped = report_for(4);
  // With pipelining the same total work finishes sooner...
  EXPECT_LT(piped.step_seconds(), serial.step_seconds());
  // ...because comm and compute genuinely overlap: busy seconds exceed the
  // serial sum check (comp + comm busy > makespan means overlap happened).
  const auto& t = piped.forward_timing;
  const double comp = t.stream_busy(0, sim::StreamKind::kCompute);
  const double comm = t.stream_busy(0, sim::StreamKind::kComm);
  EXPECT_GT(comp + comm, t.makespan * 1.05);
}

TEST(ScheduleOverlap, VeryFineGranularityHurts) {
  // Paper §I: "very fine-grained pipelining incurs significant overhead
  // because of frequent kernel launches and GPU under-utilization."
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(8, 8);
  auto seconds_for = [&](int n) {
    core::MoELayerOptions o;
    o.d_model = 2048;
    o.d_hidden = 8192;
    o.num_experts = 64;
    o.num_partitions = n;
    o.memory_reuse = false;
    o.mode = core::ExecutionMode::kTimingOnly;
    core::MoELayer layer(cluster, o);
    return layer.step_timing(2048).step_seconds();
  };
  // At a small batch, n=16 must be worse than the best coarse setting.
  EXPECT_GT(seconds_for(16), std::min(seconds_for(1), seconds_for(2)));
}

// ---- layer-level differential fuzz ----------------------------------------------
// Random small layers against the unpipelined n = 1 layer with the same
// parameters, in every dtype and every reuse strategy, serially and on a
// 4-worker pool. Each token's output row is computed the same way however
// the batch is partitioned, so outputs must match the reference bitwise;
// gradients sum over partitions in another order, so they agree to fp32
// reordering. At one partition count every strategy and both executors
// must agree bitwise: a restore returns exactly what `none` keeps.

/// Outputs, then dX and every parameter gradient, of one forward/backward.
struct FuzzStep {
  std::vector<float> outputs;
  std::vector<float> gradients;
};

FuzzStep fuzz_step(const core::MoELayerOptions& o, int devices,
                   std::int64_t batch) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, devices);
  core::MoELayer layer(cluster, o);
  Rng rng(o.seed + 1);
  std::vector<Tensor> xs, dys;
  for (int d = 0; d < devices; ++d) {
    xs.emplace_back(Shape{batch, o.d_model});
    init_normal(xs.back(), rng);
    dys.emplace_back(Shape{batch, o.d_model});
    init_normal(dys.back(), rng);
  }
  auto append = [](std::vector<float>& out, const Tensor& t) {
    out.insert(out.end(), t.data(), t.data() + t.numel());
  };
  FuzzStep step;
  for (const Tensor& y : layer.forward(xs)) append(step.outputs, y);
  for (const Tensor& dx : layer.backward(dys)) append(step.gradients, dx);
  for (const Tensor* g : layer.gradients()) append(step.gradients, *g);
  return step;
}

TEST(LayerDifferentialFuzz, EveryScheduleMatchesTheUnpipelinedLayer) {
  constexpr int kCases = 60;
  const int partitions[] = {1, 2, 3, 4, 8, 16};
  const core::ReuseStrategy strategies[] = {
      core::ReuseStrategy::kNone, core::ReuseStrategy::kS1,
      core::ReuseStrategy::kS2, core::ReuseStrategy::kS3,
      core::ReuseStrategy::kS4};
  ThreadPool::reset_shared(4);
  Rng draw(2024);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {  // [lo, hi]
    return lo + static_cast<std::int64_t>(
                    draw.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  for (int c = 0; c < kCases; ++c) {
    const int devices = static_cast<int>(pick(1, 4));
    core::MoELayerOptions o;
    o.num_experts = devices * static_cast<int>(pick(1, 3));
    o.d_model = pick(1, 24);
    o.d_hidden = pick(1, 40);
    o.seed = static_cast<std::uint64_t>(100 + c);
    const std::int64_t batch = c % 3 == 0 ? 0 : c % 3 == 1 ? 1 : pick(2, 69);
    const int n = partitions[pick(0, 5)];
    for (DType dt : {DType::kF32, DType::kBF16, DType::kI8}) {
      o.compute_dtype = dt;
      core::MoELayerOptions ref_options = o;
      ref_options.pipeline = false;
      ref_options.memory_reuse = false;
      const FuzzStep ref = fuzz_step(ref_options, devices, batch);

      std::optional<FuzzStep> first;
      for (core::ReuseStrategy strategy : strategies) {
        for (bool parallel : {false, true}) {
          const std::string where =
              "case " + std::to_string(c) + ": P=" + std::to_string(devices) +
              " E=" + std::to_string(o.num_experts) +
              " M=" + std::to_string(o.d_model) +
              " H=" + std::to_string(o.d_hidden) +
              " B=" + std::to_string(batch) + " n=" + std::to_string(n) +
              " " + to_string(dt) + " " + core::to_string(strategy) +
              (parallel ? " parallel" : " serial");
          core::MoELayerOptions piped = o;
          piped.num_partitions = n;
          piped.memory_reuse = strategy != core::ReuseStrategy::kNone;
          piped.strategy.reset();
          if (piped.memory_reuse) piped.strategy = strategy;
          piped.parallel_execution = parallel;
          const FuzzStep got = fuzz_step(piped, devices, batch);

          ASSERT_EQ(got.outputs.size(), ref.outputs.size()) << where;
          ASSERT_EQ(got.gradients.size(), ref.gradients.size()) << where;
          for (std::size_t i = 0; i < ref.outputs.size(); ++i) {
            ASSERT_EQ(got.outputs[i], ref.outputs[i])
                << where << ", output " << i;
          }
          for (std::size_t i = 0; i < ref.gradients.size(); ++i) {
            ASSERT_NEAR(got.gradients[i], ref.gradients[i],
                        2e-6f * std::max(1.0f, std::abs(ref.gradients[i])))
                << where << ", gradient " << i;
          }
          if (!first) {
            first = got;
            continue;
          }
          for (std::size_t i = 0; i < got.gradients.size(); ++i) {
            ASSERT_EQ(got.gradients[i], first->gradients[i])
                << where << ", gradient " << i << " vs none serial";
          }
        }
      }
    }
  }
  ThreadPool::reset_shared(0);  // restore the machine-sized pool
}

}  // namespace
}  // namespace mpipe
