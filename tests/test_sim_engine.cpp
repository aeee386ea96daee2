// Discrete-event engine semantics: FIFO streams, dependency ordering,
// collective synchrony, interference integration, busy accounting,
// determinism, topology/cost-model arithmetic, trace export.

#include <gtest/gtest.h>

#include "common/check.h"

#include "common/units.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace mpipe::sim {
namespace {

using mpipe::CheckError;
using mpipe::MiB;

Cluster ideal_cluster(int devices) {
  ClusterConfig cfg;
  cfg.topology.num_devices = devices;
  cfg.topology.devices_per_node = devices;
  cfg.interference = InterferenceModel::ideal();
  return Cluster(cfg);
}

TEST(EventQueue, PopsInKeyThenInsertionOrder) {
  EventQueue<int> q;
  q.push(2.0, 1);
  q.push(1.0, 2);
  q.push(1.0, 3);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);  // same key: earlier insertion first
  EXPECT_EQ(q.pop(), 1);
}

TEST(OpGraph, RejectsForwardDepsAndBadDevices) {
  OpGraph g;
  Op op;
  op.devices = {0};
  op.deps = {5};
  EXPECT_THROW(g.add(op), CheckError);

  OpGraph g2;
  g2.add("x", OpCategory::kGemm, StreamKind::kCompute, {3}, 1.0, {});
  EXPECT_THROW(g2.validate(2), CheckError);
}

TEST(OpGraph, DetectsFifoDependencyCycle) {
  // Op A enqueued before B on the same stream, but A depends on B via a
  // cross-stream chain: A(comp,0) deps C(comm,0); C deps B(comp,0).
  // Stream order comp: A then B, but B must run before C before A.
  OpGraph g;
  Op a;
  a.label = "A";
  a.stream = StreamKind::kCompute;
  a.devices = {0};
  a.base_seconds = 1.0;
  const int ida = g.add(a);
  Op c;
  c.label = "C";
  c.stream = StreamKind::kComm;
  c.devices = {0};
  c.base_seconds = 1.0;
  const int idc = g.add(c);
  Op b;
  b.label = "B";
  b.stream = StreamKind::kCompute;
  b.devices = {0};
  b.base_seconds = 1.0;
  const int idb = g.add(b);
  g.op(ida).deps = {idc};
  g.op(idc).deps = {idb};
  EXPECT_THROW(g.topo_order(), CheckError);
}

TEST(TimingEngine, SerialChainSumsDurations) {
  Cluster cluster = ideal_cluster(1);
  OpGraph g;
  int prev = g.add("a", OpCategory::kGemm, StreamKind::kCompute, {0}, 1.0,
                   {});
  prev = g.add("b", OpCategory::kGemm, StreamKind::kCompute, {0}, 2.0,
               {prev});
  g.add("c", OpCategory::kGemm, StreamKind::kCompute, {0}, 3.0, {prev});
  const auto t = cluster.time_only(g);
  EXPECT_DOUBLE_EQ(t.makespan, 6.0);
  EXPECT_DOUBLE_EQ(t.stream_busy(0, StreamKind::kCompute), 6.0);
}

TEST(TimingEngine, IndependentStreamsOverlapWithoutInterference) {
  Cluster cluster = ideal_cluster(1);
  OpGraph g;
  g.add("comp", OpCategory::kGemm, StreamKind::kCompute, {0}, 2.0, {});
  g.add("comm", OpCategory::kAllToAll, StreamKind::kComm, {0}, 2.0, {});
  g.add("mem", OpCategory::kMemcpyD2H, StreamKind::kMem, {0}, 2.0, {});
  const auto t = cluster.time_only(g);
  EXPECT_NEAR(t.makespan, 2.0, 1e-12);
}

TEST(TimingEngine, InterferenceSlowsOverlappedComm) {
  ClusterConfig cfg;
  cfg.topology.num_devices = 1;
  cfg.topology.devices_per_node = 1;
  cfg.interference = InterferenceModel::dgx_a100();
  Cluster cluster(cfg);
  OpGraph g;
  g.add("comm", OpCategory::kAllToAll, StreamKind::kComm, {0}, 1.0, {});
  g.add("comp", OpCategory::kGemm, StreamKind::kCompute, {0}, 10.0, {});
  const auto t = cluster.time_only(g);
  // Comm runs fully under compute interference: 1.0 / 0.72.
  const auto& comm_time = t.op_times[0];
  EXPECT_NEAR(comm_time.end - comm_time.start, 1.0 / 0.72, 1e-9);
}

TEST(TimingEngine, InterferenceIntegratesPiecewise) {
  ClusterConfig cfg;
  cfg.topology.num_devices = 1;
  cfg.topology.devices_per_node = 1;
  cfg.interference = InterferenceModel::dgx_a100();
  Cluster cluster(cfg);
  OpGraph g;
  g.add("comm", OpCategory::kAllToAll, StreamKind::kComm, {0}, 1.0, {});
  g.add("comp", OpCategory::kGemm, StreamKind::kCompute, {0}, 0.36, {});
  // Compute ends at 0.36/0.96 = 0.375 (slowed by comm). Comm does
  // 0.375*0.72 = 0.27 of its work by then, then runs alone:
  // total = 0.375 + 0.73 = 1.105.
  const auto t = cluster.time_only(g);
  const auto& comm_time = t.op_times[0];
  EXPECT_NEAR(comm_time.end, 0.36 / 0.96 + (1.0 - (0.36 / 0.96) * 0.72),
              1e-9);
}

TEST(TimingEngine, CollectiveOccupiesAllParticipants) {
  Cluster cluster = ideal_cluster(4);
  OpGraph g;
  g.add("blocker", OpCategory::kGemm, StreamKind::kComm, {2}, 5.0, {});
  g.add("a2a", OpCategory::kAllToAll, StreamKind::kComm, {0, 1, 2, 3}, 1.0,
        {});
  const auto t = cluster.time_only(g);
  // The collective is queued behind the blocker on device 2's comm stream,
  // so it starts only at t=5 even though devices 0/1/3 are idle.
  EXPECT_NEAR(t.op_times[1].start, 5.0, 1e-12);
  EXPECT_NEAR(t.makespan, 6.0, 1e-12);
}

TEST(TimingEngine, DeterministicAcrossRuns) {
  Cluster cluster = Cluster::dgx_a100_pod(1, 4);
  auto build = [] {
    OpGraph g;
    for (int i = 0; i < 20; ++i) {
      g.add("op" + std::to_string(i), OpCategory::kGemm,
            static_cast<StreamKind>(i % 3), {i % 4},
            0.001 * (i + 1), i > 2 ? std::vector<int>{i - 3}
                                   : std::vector<int>{});
    }
    return g;
  };
  OpGraph g1 = build(), g2 = build();
  const auto t1 = Cluster::dgx_a100_pod(1, 4).time_only(g1);
  const auto t2 = Cluster::dgx_a100_pod(1, 4).time_only(g2);
  ASSERT_EQ(t1.op_times.size(), t2.op_times.size());
  for (std::size_t i = 0; i < t1.op_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.op_times[i].start, t2.op_times[i].start);
    EXPECT_DOUBLE_EQ(t1.op_times[i].end, t2.op_times[i].end);
  }
}

TEST(TimingEngine, UtilizationWeightsEfficiency) {
  Cluster cluster = ideal_cluster(1);
  OpGraph g;
  Op op;
  op.label = "gemm";
  op.stream = StreamKind::kCompute;
  op.devices = {0};
  op.base_seconds = 1.0;
  op.compute_efficiency = 0.5;
  g.add(op);
  const auto t = cluster.time_only(g);
  EXPECT_NEAR(t.compute_utilization(0), 0.5, 1e-12);
}

TEST(FunctionalExecution, RunsClosuresInTopoOrder) {
  Cluster cluster = ideal_cluster(2);
  std::vector<int> order;
  OpGraph g;
  const int a = g.add("a", OpCategory::kGemm, StreamKind::kCompute, {0},
                      0.1, {}, [&] { order.push_back(0); });
  const int b = g.add("b", OpCategory::kGemm, StreamKind::kCompute, {1},
                      0.1, {a}, [&] { order.push_back(1); });
  g.add("c", OpCategory::kGemm, StreamKind::kCompute, {0}, 0.1, {b},
        [&] { order.push_back(2); });
  cluster.run_functional(g);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Topology, NodesAndBandwidths) {
  const Topology topo = Cluster::dgx_a100_pod(2, 4).topology();
  EXPECT_EQ(topo.num_devices(), 8);
  EXPECT_EQ(topo.node_of(3), 0);
  EXPECT_EQ(topo.node_of(4), 1);
  EXPECT_EQ(topo.node_of(7), 1);
  EXPECT_TRUE(topo.same_node(0, 3));
  EXPECT_FALSE(topo.same_node(3, 4));
  EXPECT_GT(topo.p2p_bandwidth(0, 1), topo.p2p_bandwidth(0, 5));
  // A group spanning nodes bottlenecks at the inter-node class.
  EXPECT_LT(topo.alltoall_bandwidth({0, 1, 4}),
            topo.alltoall_bandwidth({0, 1, 2}));
}

TEST(Topology, HeterogeneousScalesApply) {
  TopologyConfig cfg;
  cfg.num_devices = 4;
  cfg.devices_per_node = 4;
  cfg.device_bw_scale = {1.0, 1.0, 1.0, 0.5};
  Topology topo(cfg);
  EXPECT_DOUBLE_EQ(topo.p2p_bandwidth(0, 3), topo.p2p_bandwidth(0, 1) * 0.5);
  EXPECT_DOUBLE_EQ(topo.alltoall_bandwidth({0, 1, 2, 3}),
                   topo.alltoall_bandwidth({0, 1}) * 0.5);
}

TEST(CostModel, GemmEfficiencyMonotonic) {
  Topology topo = Topology::single_node(1);
  CostModel cost(CostModelConfig{}, topo);
  EXPECT_LT(cost.gemm_efficiency(64), cost.gemm_efficiency(1024));
  EXPECT_LT(cost.gemm_efficiency(1024), cost.gemm_efficiency(16384));
  EXPECT_LE(cost.gemm_efficiency(1 << 24),
            CostModelConfig{}.gemm_max_efficiency);
  // More FLOPs or fewer rows -> strictly more time.
  EXPECT_LT(cost.gemm_seconds(1e9, 1024), cost.gemm_seconds(2e9, 1024));
  EXPECT_LT(cost.gemm_seconds(1e9, 1024), cost.gemm_seconds(1e9, 64));
}

TEST(CostModel, CollectiveCostsScaleWithBytesAndGroup) {
  const Topology topo = Cluster::dgx_a100_pod(2, 4).topology();
  CostModel cost(CostModelConfig{}, topo);
  const auto all = std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_LT(cost.alltoall_seconds(1 * MiB, all),
            cost.alltoall_seconds(16 * MiB, all));
  EXPECT_LT(cost.alltoall_seconds(16 * MiB, {0, 1}),
            cost.alltoall_seconds(16 * MiB, all));
  EXPECT_GT(cost.allreduce_seconds(16 * MiB, all),
            cost.alltoall_seconds(16 * MiB, all));
  EXPECT_GT(cost.memcpy_seconds(16 * MiB, 0), 0.0);
}

TEST(Trace, ChromeTraceNamesEveryOp) {
  Cluster cluster = ideal_cluster(2);
  OpGraph g;
  const int a = g.add("Alpha", OpCategory::kGemm, StreamKind::kCompute, {0},
                      0.5, {});
  g.add("Beta", OpCategory::kAllToAll, StreamKind::kComm, {0, 1}, 0.5, {a});
  const auto t = cluster.time_only(g);
  const std::string json = to_chrome_trace(g, t);
  EXPECT_NE(json.find("\"Alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"Beta\""), std::string::npos);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

}  // namespace
}  // namespace mpipe::sim
