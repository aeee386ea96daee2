// Extension and edge-case coverage: the GELU expert path end to end,
// device-capacity OOM surfaced through the layer, API misuse errors,
// shadowing's traffic effect, trace/CSV/table/logging utilities.

#include <gtest/gtest.h>

#include "common/check.h"

#include <cstdio>
#include <fstream>

#include "baselines/fastermoe.h"
#include "comm/all_to_all.h"
#include "comm/collectives.h"
#include "common/units.h"
#include "common/csv_writer.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "core/moe_layer.h"
#include "runtime/trainer.h"
#include "sim/trace.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

TEST(GeluExpert, FiniteDifferenceThroughStashConvention) {
  // GELU stashes the pre-activation in T_M; the fused fwd/bwd must still
  // be exact.
  Rng rng(41);
  moe::ExpertFFN expert(5, 9, moe::ActivationKind::kGELU, rng);
  Tensor x = random_tokens(4, 5, rng);
  Tensor mid;
  Tensor y = expert.forward(x, mid);
  expert.zero_grad();
  Tensor dx = expert.backward(Tensor::full(y.shape(), 1.0f), x, mid);
  auto loss = [&](const Tensor& input) {
    Tensor m;
    return expert.forward(input, m).sum();
  };
  const float h = 1e-3f;
  for (std::int64_t idx : {0, 8, 19}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    EXPECT_NEAR(dx.at(idx), (loss(xp) - loss(xm)) / (2 * h), 2e-2)
        << "idx " << idx;
  }
}

TEST(GeluExpert, SplitStagesMatchFusedForward) {
  // C1 then C2 on row views of the buffers (rows 1..3, as the pipeline
  // runs one expert's receive rows) against the dense forward.
  Rng rng(42);
  moe::ExpertFFN expert(4, 8, moe::ActivationKind::kGELU, rng);
  Tensor buf = random_tokens(5, 4, rng);
  Tensor mid_buf(Shape{5, 8}), out_buf(Shape{5, 4});
  Tensor mid = mid_buf.view_rows(1, 4);
  Tensor out = out_buf.view_rows(1, 4);
  expert.forward_mid(buf.view_rows(1, 4), mid);  // C1
  expert.forward_out(mid, out);                  // C2
  Tensor dense_mid;
  const Tensor dense_out = expert.forward(buf.slice_rows(1, 4), dense_mid);
  EXPECT_FLOAT_EQ(max_abs_diff(mid, dense_mid), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(out, dense_out), 0.0f);
  // Rows outside the views stay untouched.
  for (std::int64_t r : {0, 4}) {
    EXPECT_FLOAT_EQ(mid_buf.slice_rows(r, r + 1).abs_max(), 0.0f);
    EXPECT_FLOAT_EQ(out_buf.slice_rows(r, r + 1).abs_max(), 0.0f);
  }
}

TEST(GeluExpert, DistributedLayerTrainsWithGelu) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  core::MoELayerOptions o;
  o.d_model = 12;
  o.d_hidden = 24;
  o.num_experts = 4;
  o.num_partitions = 2;
  o.memory_reuse = true;
  o.strategy = core::ReuseStrategy::kS3;  // exercises GELU recompute
  o.activation = moe::ActivationKind::kGELU;
  core::MoELayer layer(cluster, o);
  runtime::TrainerOptions topt;
  topt.workload.d_model = 12;
  topt.workload.tokens_per_device = 24;
  topt.workload.num_devices = 2;
  topt.adam.lr = 3e-3f;
  topt.steps = 10;
  runtime::Trainer trainer(layer, topt);
  const auto& metrics = trainer.run();
  EXPECT_LT(metrics.last_loss(), metrics.first_loss());
}

TEST(MoELayerErrors, MisuseIsRejectedEagerly) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayerOptions o;
  o.d_model = 8;
  o.d_hidden = 16;
  o.num_experts = 6;  // not a multiple of 4 devices
  EXPECT_THROW(core::MoELayer(cluster, o), CheckError);

  o.num_experts = 4;
  core::MoELayer layer(cluster, o);
  // backward before forward
  EXPECT_THROW(layer.backward({}), CheckError);
  // wrong number of inputs
  EXPECT_THROW(layer.forward({Tensor(Shape{4, 8})}), CheckError);
  // wrong input width
  std::vector<Tensor> bad;
  for (int d = 0; d < 4; ++d) bad.push_back(Tensor(Shape{4, 9}));
  EXPECT_THROW(layer.forward(bad), CheckError);
}

TEST(MoELayerErrors, TimingOnlyLayerRefusesFunctionalCalls) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  core::MoELayerOptions o;
  o.d_model = 8;
  o.d_hidden = 16;
  o.num_experts = 2;
  o.mode = core::ExecutionMode::kTimingOnly;
  core::MoELayer layer(cluster, o);
  std::vector<Tensor> inputs(2, Tensor(Shape{4, 8}));
  EXPECT_THROW(layer.forward(inputs), CheckError);
  EXPECT_THROW(layer.gate(0), CheckError);
}

TEST(MoELayerCapacity, OomSurfacesWithContext) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  core::MoELayerOptions o;
  o.d_model = 64;
  o.d_hidden = 256;
  o.num_experts = 2;
  o.num_partitions = 2;
  o.memory_reuse = false;
  o.device_capacity_bytes = 600 * 1024;  // fits weights, not a big step
  o.mode = core::ExecutionMode::kTimingOnly;
  core::MoELayer layer(cluster, o);
  EXPECT_NO_THROW(layer.step_timing(16));
  EXPECT_THROW(layer.step_timing(4096), mem::OutOfMemoryError);
}

TEST(Shadowing, ReducesFasterMoECommUnderHotExpert) {
  sim::Cluster c1 = sim::Cluster::dgx_a100_pod(2, 4);
  sim::Cluster c2 = sim::Cluster::dgx_a100_pod(2, 4);
  core::MoELayerOptions o;
  o.d_model = 1024;
  o.d_hidden = 4096;
  o.num_experts = 64;
  o.mode = core::ExecutionMode::kTimingOnly;
  baselines::ShadowingConfig with;
  with.enabled = true;
  with.threshold = 1.3;
  baselines::ShadowingConfig without = with;
  without.enabled = false;

  baselines::FasterMoELayer shadowed(c1, o, with);
  baselines::FasterMoELayer plain(c2, o, without);
  // Heavy skew: device 0 is hot; shadowing keeps its traffic local.
  const auto t_shadowed = shadowed.step_timing(16384, 0.3);
  const auto t_plain = plain.step_timing(16384, 0.3);
  EXPECT_LT(t_shadowed.step_seconds(), t_plain.step_seconds());
  EXPECT_GT(t_shadowed.memory.model_states, t_plain.memory.model_states);
}

TEST(TablePrinter, AlignsAndValidates) {
  TablePrinter table({"a", "long-header"});
  table.add_row({"1", "2"});
  const std::string s = table.to_string();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), CheckError);
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = "/tmp/mpipe_csv_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    csv.row({"1", CsvWriter::num(2.5)});
    EXPECT_THROW(csv.row({"too", "many", "cells"}), CheckError);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::remove(path.c_str());
}

TEST(Logging, LevelFilteringAndParsing) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("nonsense"), LogLevel::kInfo);
  auto& logger = Logger::instance();
  const LogLevel saved = logger.level();
  logger.set_level(LogLevel::kOff);
  MPIPE_LOG_ERROR << "suppressed";  // must not crash, writes nothing
  logger.set_level(saved);
}

TEST(HierarchicalAllToAll, PhasesChainAndBandwidthCrossoverHolds) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(2, 8);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  sim::OpGraph g;
  const auto phases =
      comm::hierarchical_alltoall_timed(g, world, 8 * MiB, "h", {});
  ASSERT_EQ(phases.size(), 3u);
  const auto t = cluster.time_only(g);
  // Phases execute strictly in order.
  EXPECT_GE(t.op_times[1].start, t.op_times[0].end - 1e-12);
  EXPECT_GE(t.op_times[2].start, t.op_times[1].end - 1e-12);
  // With 2 nodes, only half the payload crosses the fabric — hierarchical
  // must beat flat at a bandwidth-bound payload.
  sim::OpGraph flat;
  comm::alltoall_timed(flat, world, 8 * MiB, "flat", {});
  EXPECT_LT(t.makespan, cluster.time_only(flat).makespan);
}

}  // namespace
}  // namespace mpipe
