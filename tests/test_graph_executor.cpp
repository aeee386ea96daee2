// The concurrent op-graph executor and its hazard validator: parallel
// execution must match the serial reference bitwise for any pool size,
// respect explicit deps and per-stream FIFO edges, reject graphs whose
// unordered ops touch overlapping memory (a planted missing WAR edge), and
// terminate + rethrow when a closure fails. Plus the probe contract:
// granularity-search probes are timing-shape-only and never touch the
// thread pool.

#include <gtest/gtest.h>

#include "common/check.h"

#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"
#include "core/moe_layer.h"
#include "sim/cluster.h"
#include "sim/graph_executor.h"

namespace mpipe::sim {
namespace {

/// A pipeline-shaped DAG over a flat float buffer: op i sums its deps'
/// cells (+ its id) into cell i. Every op declares its accesses, so the
/// graph is validator-clean, and the final buffer contents are a complete
/// witness of execution order correctness.
struct CellGraph {
  OpGraph graph;
  std::vector<float> cells;

  int add_op(const std::string& label, StreamKind stream,
             std::vector<int> devices, std::vector<int> deps) {
    const int my_id = graph.size();
    Op op;
    op.label = label;
    op.stream = stream;
    op.devices = std::move(devices);
    op.base_seconds = 1e-6;
    op.deps = deps;
    float* base = cells.data();
    op.fn = [base, my_id, deps] {
      float acc = static_cast<float>(my_id + 1);
      for (int dep : deps) acc += base[dep] * 1.25f;
      base[my_id] = acc;
    };
    for (int dep : deps) {
      op.reads.push_back(access_floats(base, dep, 1));
    }
    op.writes.push_back(access_floats(base, my_id, 1));
    return graph.add(std::move(op));
  }
};

/// Builds a 3-device, 3-stream pipeline-ish DAG with cross-device joins.
CellGraph build_cell_graph() {
  CellGraph cg;
  cg.cells.assign(64, 0.0f);
  std::vector<int> layer_prev;
  for (int d = 0; d < 3; ++d) {
    layer_prev.push_back(cg.add_op("src" + std::to_string(d),
                                   StreamKind::kCompute, {d}, {}));
  }
  for (int step = 0; step < 4; ++step) {
    std::vector<int> layer;
    for (int d = 0; d < 3; ++d) {
      // Comm op joining this device's previous op with a neighbour's.
      const int join = cg.add_op(
          "x" + std::to_string(step) + "." + std::to_string(d),
          StreamKind::kComm, {d},
          {layer_prev[static_cast<std::size_t>(d)],
           layer_prev[static_cast<std::size_t>((d + 1) % 3)]});
      // Compute op consuming the join, plus a mem-stream op alongside.
      const int comp =
          cg.add_op("c" + std::to_string(step) + "." + std::to_string(d),
                    StreamKind::kCompute, {d}, {join});
      cg.add_op("m" + std::to_string(step) + "." + std::to_string(d),
                StreamKind::kMem, {d}, {join});
      layer.push_back(comp);
    }
    layer_prev = layer;
  }
  return cg;
}

TEST(GraphExecutor, ParallelMatchesSerialBitwiseAcrossPoolSizes) {
  Cluster cluster = Cluster::dgx_a100_pod(1, 3);
  CellGraph reference = build_cell_graph();
  cluster.run_functional(reference.graph, ExecutionPolicy::kSerial);

  for (std::size_t threads : {1u, 4u, 8u}) {
    ThreadPool::reset_shared(threads);
    CellGraph parallel = build_cell_graph();
    cluster.run_functional(parallel.graph, ExecutionPolicy::kParallel);
    ASSERT_EQ(reference.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < reference.cells.size(); ++i) {
      // Bitwise, not approximate: EXPECT_EQ on floats.
      ASSERT_EQ(reference.cells[i], parallel.cells[i])
          << "cell " << i << " under " << threads << " workers";
    }
  }
  ThreadPool::reset_shared(0);
}

TEST(GraphExecutor, ZeroAndSingleOpGraphsRunUnderBothPolicies) {
  Cluster cluster = Cluster::dgx_a100_pod(1, 2);
  OpGraph empty;
  EXPECT_NO_THROW(cluster.run_functional(empty, ExecutionPolicy::kSerial));
  EXPECT_NO_THROW(cluster.run_functional(empty, ExecutionPolicy::kParallel));

  int runs = 0;
  OpGraph single;
  Op op;
  op.label = "only";
  op.devices = {0};
  op.fn = [&runs] { ++runs; };
  single.add(std::move(op));
  cluster.run_functional(single, ExecutionPolicy::kSerial);
  cluster.run_functional(single, ExecutionPolicy::kParallel);
  EXPECT_EQ(runs, 2);
}

TEST(GraphExecutor, StreamFifoEdgesOrderOpsWithoutExplicitDeps) {
  // Two closures on the same (device, stream) with no explicit dep: the
  // implicit FIFO edge must serialise them in enqueue order, every run.
  for (int round = 0; round < 20; ++round) {
    std::vector<int> sequence;
    std::mutex mu;
    OpGraph g;
    for (int i = 0; i < 6; ++i) {
      Op op;
      op.label = "f";
      op.label += std::to_string(i);
      op.stream = StreamKind::kCompute;
      op.devices = {0};
      op.fn = [&sequence, &mu, i] {
        std::lock_guard<std::mutex> lock(mu);
        sequence.push_back(i);
      };
      // All ops write the shared sequence: the FIFO edges are what makes
      // that legal, and the validator must agree.
      op.reads.push_back(access_token(&sequence));
      op.writes.push_back(access_token(&sequence));
      g.add(std::move(op));
    }
    run_graph_parallel(g, ThreadPool::shared());
    ASSERT_EQ(sequence.size(), 6u);
    for (int i = 0; i < 6; ++i) EXPECT_EQ(sequence[i], i);
  }
}

TEST(GraphExecutor, ValidatorRejectsMissingWarEdge) {
  // reader (dep on writer1) and writer2 reuse the same slot; without the
  // WAR edge reader -> writer2 the pair is unordered and must be rejected.
  float slot = 0.0f;
  auto build = [&slot](bool with_war_edge) {
    OpGraph g;
    Op w1;
    w1.label = "writer1";
    w1.stream = StreamKind::kComm;
    w1.devices = {0, 1};
    w1.fn = [&slot] { slot = 1.0f; };
    w1.writes.push_back(access_floats(&slot, 0, 1));
    const int w1_id = g.add(std::move(w1));

    Op r;
    r.label = "reader";
    r.stream = StreamKind::kCompute;
    r.devices = {0};
    r.deps = {w1_id};
    r.fn = [&slot] { (void)slot; };
    r.reads.push_back(access_floats(&slot, 0, 1));
    const int r_id = g.add(std::move(r));

    Op w2;
    w2.label = "writer2";
    w2.stream = StreamKind::kMem;
    w2.devices = {1};
    w2.deps = {w1_id};
    if (with_war_edge) w2.deps.push_back(r_id);
    w2.fn = [&slot] { slot = 2.0f; };
    w2.writes.push_back(access_floats(&slot, 0, 1));
    g.add(std::move(w2));
    return g;
  };

  EXPECT_NO_THROW(validate_hazards(build(/*with_war_edge=*/true)));
  try {
    validate_hazards(build(/*with_war_edge=*/false));
    FAIL() << "missing WAR edge must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("reader"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("writer2"), std::string::npos);
  }
}

TEST(GraphExecutor, ValidatorRejectsUndeclaredConcurrentClosure) {
  OpGraph g;
  int x = 0;
  for (int d = 0; d < 2; ++d) {
    Op op;
    op.label = "undeclared" + std::to_string(d);
    op.stream = StreamKind::kCompute;
    op.devices = {d};
    op.fn = [&x] { ++x; };  // no declared accesses
    g.add(std::move(op));
  }
  EXPECT_THROW(validate_hazards(g), CheckError);
}

TEST(GraphExecutor, ValidatorAcceptsDisjointConcurrentWrites) {
  OpGraph g;
  float cells[2] = {0.0f, 0.0f};
  for (int d = 0; d < 2; ++d) {
    Op op;
    op.label = "w" + std::to_string(d);
    op.stream = StreamKind::kCompute;
    op.devices = {d};
    op.fn = [&cells, d] { cells[d] = 1.0f; };
    op.writes.push_back(access_floats(cells, d, 1));
    g.add(std::move(op));
  }
  EXPECT_NO_THROW(validate_hazards(g));
}

TEST(GraphExecutor, ClosureExceptionPropagatesAndRunTerminates) {
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool::reset_shared(threads);
    OpGraph g;
    std::atomic<int> later_ran{0};
    Op boom;
    boom.label = "boom";
    boom.devices = {0};
    boom.fn = [] { throw std::runtime_error("op failed"); };
    const int boom_id = g.add(std::move(boom));
    // A long tail behind the failing op: the executor must still drain it
    // (closures skipped after cancellation) instead of hanging.
    int prev = boom_id;
    for (int i = 0; i < 10; ++i) {
      Op tail;
      tail.label = "tail" + std::to_string(i);
      tail.devices = {1};
      tail.deps = {prev};
      tail.fn = [&later_ran] { later_ran.fetch_add(1); };
      prev = g.add(std::move(tail));
    }
    EXPECT_THROW(run_graph_parallel(g, ThreadPool::shared()),
                 std::runtime_error);
    EXPECT_EQ(later_ran.load(), 0);
  }
  ThreadPool::reset_shared(0);
}

TEST(GraphExecutor, ConcurrentMultiOpFailureRethrowsExactlyOne) {
  // Several independent ops fail *simultaneously* (they rendezvous on an
  // atomic before throwing, so under multi-worker pools the failures race):
  // the executor must rethrow exactly one of the planted errors, never
  // hang, never run dependent ops, and leave the pool reusable. The
  // tasks_enqueued delta is checked against the op count so no cancelled
  // straggler task is left enqueued behind the run.
  for (std::size_t threads : {1u, 4u, 8u}) {
    ThreadPool::reset_shared(threads);
    constexpr int kFailers = 3;
    OpGraph g;
    std::atomic<int> at_barrier{0};
    std::atomic<int> downstream_ran{0};
    std::vector<int> failer_ids;
    for (int i = 0; i < kFailers; ++i) {
      Op op;
      op.label = "fail" + std::to_string(i);
      op.devices = {i};
      op.fn = [&at_barrier, i] {
        at_barrier.fetch_add(1);
        // Rendezvous so the throws overlap when workers allow; bounded
        // spin so a single-worker pool (where ops run serially and the
        // count can never reach kFailers in op 0) still terminates.
        const std::int64_t until = ExecutionProfile::now_ns() + 10'000'000;
        while (at_barrier.load() < kFailers &&
               ExecutionProfile::now_ns() < until) {
        }
        throw TransientError("planted failure " + std::to_string(i));
      };
      failer_ids.push_back(g.add(std::move(op)));
    }
    for (int i = 0; i < kFailers; ++i) {
      Op tail;
      tail.label = "after" + std::to_string(i);
      tail.devices = {i};
      tail.deps = {failer_ids[static_cast<std::size_t>(i)]};
      tail.fn = [&downstream_ran] { downstream_ran.fetch_add(1); };
      g.add(std::move(tail));
    }

    const std::uint64_t before = ThreadPool::shared().tasks_enqueued();
    try {
      run_graph_parallel(g, ThreadPool::shared());
      FAIL() << "multi-failure graph must throw (threads=" << threads << ")";
    } catch (const TransientError& e) {
      // Exactly one of the planted errors, verbatim.
      EXPECT_NE(std::string(e.what()).find("planted failure"),
                std::string::npos);
    }
    const std::uint64_t enqueued =
        ThreadPool::shared().tasks_enqueued() - before;
    EXPECT_LE(enqueued, static_cast<std::uint64_t>(g.size()))
        << "cancelled run left stray tasks enqueued (threads=" << threads
        << ")";
    EXPECT_EQ(downstream_ran.load(), 0)
        << "dependent op ran after its producer failed";

    // The pool and executor must be fully functional after the failure.
    std::atomic<int> ok{0};
    OpGraph clean;
    Op op;
    op.label = "clean";
    op.devices = {0};
    op.fn = [&ok] { ok.fetch_add(1); };
    clean.add(std::move(op));
    EXPECT_NO_THROW(run_graph_parallel(clean, ThreadPool::shared()));
    EXPECT_EQ(ok.load(), 1);
  }
  ThreadPool::reset_shared(0);
}

TEST(GraphExecutorProfile, SerialProfiledTimelineIsGapFreeAndStreamOrdered) {
  // A profiled serial run executes ops back-to-back on one thread, so the
  // recorded intervals must be non-overlapping in recording order, every
  // op must land on worker 0, and each (device, stream) pair must see its
  // ops in the FIFO order the serial reference executes.
  CellGraph cg = build_cell_graph();
  ExecutionProfile profile;
  run_graph_serial(cg.graph, &profile);

  ASSERT_EQ(profile.size(), cg.graph.size());
  const std::vector<int> order = cg.graph.topo_order();
  std::int64_t prev_end = std::numeric_limits<std::int64_t>::min();
  for (int id : order) {
    const OpSample& s = profile.sample(id);
    ASSERT_TRUE(s.recorded()) << "op " << id;
    EXPECT_EQ(s.worker, 0) << "op " << id;
    EXPECT_LE(s.start_ns, s.end_ns) << "op " << id;
    // Gap-free single-thread execution: the next op's start is stamped
    // after the previous op's end.
    EXPECT_GE(s.start_ns, prev_end) << "op " << id;
    prev_end = s.end_ns;
  }

  const MeasuredTimeline tl = build_timeline(cg.graph, profile, 3);
  // Per-stream ordering: within one (device, stream) the measured starts
  // follow the FIFO enqueue order.
  std::map<std::pair<int, int>, double> last_start;
  for (const Op& op : cg.graph.ops()) {
    const MeasuredOp& m = tl.ops[static_cast<std::size_t>(op.id)];
    for (int device : op.devices) {
      auto key = std::make_pair(device, static_cast<int>(op.stream));
      auto it = last_start.find(key);
      if (it != last_start.end()) {
        EXPECT_GE(m.start, it->second)
            << "stream FIFO order violated for op " << op.label;
      }
      last_start[key] = m.start;
    }
  }
}

TEST(GraphExecutorProfile, MeasuredDurationsAccountForTheMakespan) {
  // With op bodies that dwarf the recording overhead (100us spins), the
  // serial timeline's per-op durations must sum to at least the lion's
  // share of the measured makespan, the critical path cannot exceed that
  // sum, and per-stream occupancy stays within [0, 1].
  auto spin = [] {
    const std::int64_t until = ExecutionProfile::now_ns() + 100'000;
    while (ExecutionProfile::now_ns() < until) {
    }
  };
  OpGraph g;
  float sink[4] = {};
  for (int i = 0; i < 4; ++i) {
    Op op;
    op.label = "spin" + std::to_string(i);
    op.stream = static_cast<StreamKind>(i % kNumStreamKinds);
    op.devices = {i % 2};
    op.fn = [spin, &sink, i] {
      spin();
      sink[i] = 1.0f;
    };
    op.writes.push_back(access_floats(sink, i, 1));
    g.add(std::move(op));
  }
  ExecutionProfile profile;
  run_graph_serial(g, &profile);
  const MeasuredTimeline tl = build_timeline(g, profile, 2);

  double duration_sum = 0.0;
  for (const MeasuredOp& m : tl.ops) duration_sum += m.seconds();
  EXPECT_GT(tl.makespan, 0.0);
  EXPECT_LE(duration_sum, tl.makespan * (1.0 + 1e-9));
  EXPECT_GE(duration_sum, tl.makespan * 0.9)
      << "recording gaps ate the timeline";
  EXPECT_LE(tl.critical_path_seconds, duration_sum * (1.0 + 1e-9));
  EXPECT_FALSE(tl.critical_path.empty());
  double busy_sum = 0.0;
  for (int d = 0; d < 2; ++d) {
    for (int k = 0; k < kNumStreamKinds; ++k) {
      const double occ = tl.stream_occupancy(d, static_cast<StreamKind>(k));
      EXPECT_GE(occ, 0.0);
      EXPECT_LE(occ, 1.0 + 1e-9);
      busy_sum += tl.busy(d, static_cast<StreamKind>(k));
    }
  }
  // Single-device ops: busy seconds partition the duration sum exactly.
  EXPECT_NEAR(busy_sum, duration_sum, duration_sum * 1e-9);
}

TEST(GraphExecutorProfile, ProfilingOffKeepsOutputsAndTaskCountsIdentical) {
  // The PR-4 contract with profiling off: bitwise identical results and
  // exactly the same pool-task footprint as a profiled run — recording
  // never enqueues work, and not recording never changes execution.
  ThreadPool::reset_shared(4);
  CellGraph reference = build_cell_graph();
  const std::uint64_t before_plain = ThreadPool::shared().tasks_enqueued();
  run_graph_parallel(reference.graph, ThreadPool::shared());
  const std::uint64_t plain_tasks =
      ThreadPool::shared().tasks_enqueued() - before_plain;

  CellGraph profiled = build_cell_graph();
  ExecutionProfile profile;
  const std::uint64_t before_prof = ThreadPool::shared().tasks_enqueued();
  run_graph_parallel(profiled.graph, ThreadPool::shared(), &profile);
  const std::uint64_t prof_tasks =
      ThreadPool::shared().tasks_enqueued() - before_prof;

  EXPECT_EQ(plain_tasks, prof_tasks);
  for (std::size_t i = 0; i < reference.cells.size(); ++i) {
    ASSERT_EQ(reference.cells[i], profiled.cells[i]) << "cell " << i;
  }
  for (int id = 0; id < profiled.graph.size(); ++id) {
    EXPECT_TRUE(profile.sample(id).recorded()) << "op " << id;
  }
  ThreadPool::reset_shared(0);
}

TEST(GraphExecutor, ProbePathsStayThreadAndAllocationQuiet) {
  // Granularity-search probes are timing-shape-only: even on a layer
  // configured for parallel execution they must never enqueue pool work
  // or materialise buffers. probe_step_seconds asserts the graphs carry
  // no closures; here we watch the pool's task counter across a full
  // adaptive search.
  Cluster cluster = Cluster::dgx_a100_pod(1, 4);
  core::MoELayerOptions o;
  o.d_model = 64;
  o.d_hidden = 256;
  o.num_experts = 4;
  o.num_partitions = 0;  // adaptive: step_timing triggers probe trials
  o.candidate_partitions = {1, 2, 4};
  o.memory_reuse = false;
  o.parallel_execution = true;
  o.mode = core::ExecutionMode::kTimingOnly;
  core::MoELayer layer(cluster, o);

  const std::uint64_t before = ThreadPool::shared().tasks_enqueued();
  layer.step_timing(/*tokens_per_device=*/256);
  const std::uint64_t after = ThreadPool::shared().tasks_enqueued();
  EXPECT_EQ(before, after)
      << "probe/timing path enqueued work on the shared pool";
  EXPECT_GT(layer.searcher().stats().trials, 0u);
}

}  // namespace
}  // namespace mpipe::sim
