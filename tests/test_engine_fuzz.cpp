// Randomized property tests of the engine and its inputs: for arbitrary
// valid DAGs over arbitrary clusters, core invariants must hold — complete
// execution, dependency and FIFO ordering in simulated time, busy-time
// bounds, critical-path lower bound, interference never speeding things
// up, and replay determinism. Plus a kernel-level sweep of the SIMD
// layer-norm/softmax kernels against scalar references.

#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "moe/layer_norm.h"
#include "sim/cluster.h"
#include "sim/graph_executor.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"

namespace mpipe::sim {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  int devices;
  int ops;
};

OpGraph random_graph(const FuzzCase& c, Rng& rng) {
  OpGraph g;
  for (int i = 0; i < c.ops; ++i) {
    Op op;
    op.label = "op" + std::to_string(i);
    op.stream = static_cast<StreamKind>(rng.uniform_index(3));
    op.base_seconds = rng.uniform(1e-5, 1e-3);
    if (op.stream == StreamKind::kComm && rng.uniform() < 0.3 &&
        c.devices >= 2) {
      // Collective over a random contiguous device group.
      const int lo = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(c.devices - 1)));
      const int hi =
          lo + 1 +
          static_cast<int>(rng.uniform_index(
              static_cast<std::uint64_t>(c.devices - lo - 1)));
      for (int d = lo; d <= hi; ++d) op.devices.push_back(d);
      op.category = OpCategory::kAllToAll;
    } else {
      op.devices = {static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(c.devices)))};
      op.category = op.stream == StreamKind::kCompute
                        ? OpCategory::kGemm
                        : OpCategory::kMemcpyD2H;
      op.compute_efficiency = rng.uniform(0.2, 1.0);
    }
    // Backward-only deps keep the explicit-dependency graph acyclic; the
    // combined (deps + FIFO) graph is then acyclic too because FIFO edges
    // also point forward in insertion order.
    const int max_deps = std::min(i, 3);
    for (int k = 0; k < max_deps; ++k) {
      if (rng.uniform() < 0.3) {
        op.deps.push_back(static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(i))));
      }
    }
    std::sort(op.deps.begin(), op.deps.end());
    op.deps.erase(std::unique(op.deps.begin(), op.deps.end()),
                  op.deps.end());
    g.add(std::move(op));
  }
  return g;
}

class EngineFuzz : public testing::TestWithParam<FuzzCase> {};

TEST_P(EngineFuzz, InvariantsHoldOnRandomGraphs) {
  const FuzzCase c = GetParam();
  Rng rng(c.seed);
  OpGraph g = random_graph(c, rng);
  Cluster cluster = Cluster::dgx_a100_pod(
      std::max(1, c.devices / 4), std::min(4, c.devices));
  const TimingResult t = cluster.time_only(g);

  // 1. Everything ran, with non-negative durations.
  double sum_durations = 0.0;
  for (const Op& op : g.ops()) {
    const auto& ot = t.op_times[static_cast<std::size_t>(op.id)];
    ASSERT_TRUE(ot.started()) << op.label;
    ASSERT_GE(ot.end, ot.start);
    // Interference can only slow ops down, never below base duration.
    EXPECT_GE(ot.end - ot.start, op.base_seconds - 1e-12) << op.label;
    sum_durations += ot.end - ot.start;
    EXPECT_LE(ot.end, t.makespan + 1e-12);
  }

  // 2. Dependencies respected in simulated time.
  for (const Op& op : g.ops()) {
    for (int dep : op.deps) {
      EXPECT_GE(t.op_times[static_cast<std::size_t>(op.id)].start,
                t.op_times[static_cast<std::size_t>(dep)].end - 1e-12)
          << op.label << " started before dep " << dep << " finished";
    }
  }

  // 3. Stream FIFO: per (device, kind), ops execute in insertion order
  //    without overlap.
  std::map<std::pair<int, int>, double> last_end;
  for (const Op& op : g.ops()) {
    const auto& ot = t.op_times[static_cast<std::size_t>(op.id)];
    for (int d : op.devices) {
      auto key = std::make_pair(d, static_cast<int>(op.stream));
      auto it = last_end.find(key);
      if (it != last_end.end()) {
        EXPECT_GE(ot.start, it->second - 1e-12)
            << "FIFO violated on device " << d;
      }
      last_end[key] = ot.end;
    }
  }

  // 4. Busy-time accounting: per stream, busy <= makespan; total busy
  //    equals the sum of op durations over their devices.
  double total_busy = 0.0;
  for (int d = 0; d < cluster.num_devices(); ++d) {
    for (int k = 0; k < kNumStreamKinds; ++k) {
      const double busy = t.stream_busy(d, static_cast<StreamKind>(k));
      EXPECT_GE(busy, -1e-12);
      EXPECT_LE(busy, t.makespan + 1e-9);
      total_busy += busy;
    }
    EXPECT_GE(t.compute_utilization(d), 0.0);
    EXPECT_LE(t.compute_utilization(d), 1.0 + 1e-9);
  }
  double expected_busy = 0.0;
  for (const Op& op : g.ops()) {
    const auto& ot = t.op_times[static_cast<std::size_t>(op.id)];
    expected_busy += (ot.end - ot.start) *
                     static_cast<double>(op.devices.size());
  }
  EXPECT_NEAR(total_busy, expected_busy, 1e-6 * std::max(1.0, expected_busy));

  // 5. Makespan bounds: at least the longest single op, at most the sum
  //    of all durations (full serialization).
  double longest = 0.0;
  for (const Op& op : g.ops()) longest = std::max(longest, op.base_seconds);
  EXPECT_GE(t.makespan, longest - 1e-12);
  EXPECT_LE(t.makespan, sum_durations + 1e-9);

  // 6. Determinism: replay gives bit-identical timings.
  Rng rng2(c.seed);
  OpGraph g2 = random_graph(c, rng2);
  const TimingResult t2 = cluster.time_only(g2);
  ASSERT_EQ(t.op_times.size(), t2.op_times.size());
  for (std::size_t i = 0; i < t.op_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(t.op_times[i].start, t2.op_times[i].start);
    EXPECT_DOUBLE_EQ(t.op_times[i].end, t2.op_times[i].end);
  }
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 1000;
  for (int devices : {1, 2, 4, 8}) {
    for (int ops : {5, 30, 120}) {
      cases.push_back({seed++, devices, ops});
      cases.push_back({seed++, devices, ops});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, EngineFuzz, testing::ValuesIn(fuzz_cases()),
                         [](const auto& info) {
                           return "s" + std::to_string(info.param.seed) +
                                  "d" + std::to_string(info.param.devices) +
                                  "o" + std::to_string(info.param.ops);
                         });

// ---- SIMD kernels vs scalar fp64 references -------------------------------

TEST(SimdEquivalenceFuzz, SoftmaxMatchesScalarReference) {
  Rng rng(777);
  for (int iter = 0; iter < 120; ++iter) {
    const std::int64_t rows = static_cast<std::int64_t>(rng.uniform_index(24));
    const std::int64_t cols =
        1 + static_cast<std::int64_t>(rng.uniform_index(130));
    const float sc = std::pow(10.0f, rng.uniform(-2.0, 2.0));
    Tensor x(Shape{rows, cols});
    init_normal(x, rng, sc);
    Tensor y = softmax_rows(x);
    Tensor dy(x.shape());
    init_normal(dy, rng);
    Tensor dx = softmax_rows_backward(dy, y);
    for (std::int64_t rr = 0; rr < rows; ++rr) {
      double mx = x.at(rr, 0);
      for (std::int64_t c = 1; c < cols; ++c) {
        mx = std::max(mx, static_cast<double>(x.at(rr, c)));
      }
      double denom = 0.0;
      for (std::int64_t c = 0; c < cols; ++c) {
        denom += std::exp(static_cast<double>(x.at(rr, c)) - mx);
      }
      double dot = 0.0;
      for (std::int64_t c = 0; c < cols; ++c) {
        const double ref = std::exp(static_cast<double>(x.at(rr, c)) - mx) /
                           denom;
        EXPECT_NEAR(y.at(rr, c), ref, 1e-5)
            << "rows=" << rows << " cols=" << cols;
        dot += static_cast<double>(dy.at(rr, c)) * ref;
      }
      for (std::int64_t c = 0; c < cols; ++c) {
        const double ref =
            static_cast<double>(y.at(rr, c)) * (dy.at(rr, c) - dot);
        EXPECT_NEAR(dx.at(rr, c), ref, 1e-4)
            << "rows=" << rows << " cols=" << cols;
      }
    }
  }
}

TEST(SimdEquivalenceFuzz, LayerNormMatchesScalarReference) {
  Rng rng(888);
  for (int iter = 0; iter < 60; ++iter) {
    const std::int64_t rows =
        1 + static_cast<std::int64_t>(rng.uniform_index(20));
    const std::int64_t dim =
        1 + static_cast<std::int64_t>(rng.uniform_index(200));
    moe::LayerNorm ln(dim);
    init_normal(ln.gamma(), rng, 1.0f);
    init_normal(ln.beta(), rng, 0.5f);
    Tensor x(Shape{rows, dim});
    init_normal(x, rng, std::pow(10.0f, rng.uniform(-1.0, 1.0)));
    const auto fwd = ln.forward(x);
    Tensor dy(x.shape());
    init_normal(dy, rng);
    ln.zero_grad();
    Tensor dx = ln.backward(dy, fwd);

    std::vector<double> gg(static_cast<std::size_t>(dim), 0.0);
    std::vector<double> bg(static_cast<std::size_t>(dim), 0.0);
    for (std::int64_t rr = 0; rr < rows; ++rr) {
      double mean = 0.0, var = 0.0;
      for (std::int64_t c = 0; c < dim; ++c) mean += x.at(rr, c);
      mean /= static_cast<double>(dim);
      for (std::int64_t c = 0; c < dim; ++c) {
        const double d = x.at(rr, c) - mean;
        var += d * d;
      }
      var /= static_cast<double>(dim);
      const double inv = 1.0 / std::sqrt(var + 1e-5);
      double sum_dn = 0.0, sum_dn_n = 0.0;
      for (std::int64_t c = 0; c < dim; ++c) {
        const double n = (x.at(rr, c) - mean) * inv;
        const double out = n * ln.gamma().at(c) + ln.beta().at(c);
        EXPECT_NEAR(fwd.normalized.at(rr, c), n, 2e-4)
            << "rows=" << rows << " dim=" << dim;
        EXPECT_NEAR(fwd.output.at(rr, c), out, 2e-3)
            << "rows=" << rows << " dim=" << dim;
        const double dn = static_cast<double>(dy.at(rr, c)) *
                          ln.gamma().at(c);
        sum_dn += dn;
        sum_dn_n += dn * n;
        gg[static_cast<std::size_t>(c)] +=
            static_cast<double>(dy.at(rr, c)) * n;
        bg[static_cast<std::size_t>(c)] += dy.at(rr, c);
      }
      const double invc = 1.0 / static_cast<double>(dim);
      for (std::int64_t c = 0; c < dim; ++c) {
        const double n = (x.at(rr, c) - mean) * inv;
        const double dn = static_cast<double>(dy.at(rr, c)) *
                          ln.gamma().at(c);
        const double ref =
            inv * (dn - sum_dn * invc - n * sum_dn_n * invc);
        EXPECT_NEAR(dx.at(rr, c), ref, 5e-3)
            << "rows=" << rows << " dim=" << dim;
      }
    }
    for (std::int64_t c = 0; c < dim; ++c) {
      EXPECT_NEAR(ln.gamma_grad().at(c), gg[static_cast<std::size_t>(c)],
                  5e-3);
      EXPECT_NEAR(ln.beta_grad().at(c), bg[static_cast<std::size_t>(c)],
                  5e-3);
    }
  }
}

// ---- concurrent executor fuzz ----------------------------------------------

struct ExecFuzzCase {
  std::uint64_t seed;
  int ops;
  int devices;
  int slots;  ///< shared ring slots carrying WAR chains (0 = none)
};

struct ExecFuzzBuffers {
  std::vector<float> cells;  ///< one private result cell per op
  std::vector<float> slots;  ///< shared, reused across ops (ring-style)
};

/// Random DAG whose closures do real float math: every op writes its own
/// cell from its deps' cells; ring ops additionally read-modify-write a
/// shared slot, chained to the slot's previous user by an explicit WAR/
/// serialisation edge (the chain edge is exactly what the planted-missing-
/// edge test below removes). All accesses are declared, so the graphs are
/// validator-clean by construction.
OpGraph random_exec_graph(const ExecFuzzCase& c, ExecFuzzBuffers& buf) {
  Rng rng(c.seed);
  buf.cells.assign(static_cast<std::size_t>(std::max(c.ops, 1)), 0.0f);
  buf.slots.assign(static_cast<std::size_t>(std::max(c.slots, 1)), 0.0f);
  float* cells = buf.cells.data();
  float* slots = buf.slots.data();
  std::vector<int> last_slot_user(static_cast<std::size_t>(c.slots), -1);

  OpGraph g;
  for (int i = 0; i < c.ops; ++i) {
    Op op;
    op.label = "op" + std::to_string(i);
    op.stream = static_cast<StreamKind>(rng.uniform_index(3));
    op.devices = {static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(c.devices)))};
    op.base_seconds = 1e-6;

    std::vector<int> deps;
    for (int k = 0; k < 3 && i > 0; ++k) {
      if (rng.uniform() < 0.3) {
        const int dep = static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(i)));
        if (std::find(deps.begin(), deps.end(), dep) == deps.end()) {
          deps.push_back(dep);
        }
      }
    }

    int slot = -1;
    if (c.slots > 0 && rng.uniform() < 0.4) {
      slot = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(c.slots)));
      const int prev = last_slot_user[static_cast<std::size_t>(slot)];
      if (prev >= 0 &&
          std::find(deps.begin(), deps.end(), prev) == deps.end()) {
        deps.push_back(prev);  // the WAR/serialisation chain edge
      }
      last_slot_user[static_cast<std::size_t>(slot)] = i;
    }

    op.deps = deps;
    op.fn = [cells, slots, deps, i, slot] {
      float acc = static_cast<float>(i + 1);
      for (int dep : deps) acc += cells[dep] * 1.25f;
      if (slot >= 0) {
        slots[slot] = slots[slot] * 0.75f + acc;
        acc += slots[slot] * 0.5f;
      }
      cells[i] = acc;
    };
    for (int dep : deps) op.reads.push_back(access_floats(cells, dep, 1));
    if (slot >= 0) {
      op.reads.push_back(access_floats(slots, slot, 1));
      op.writes.push_back(access_floats(slots, slot, 1));
    }
    op.writes.push_back(access_floats(cells, i, 1));
    g.add(std::move(op));
  }
  return g;
}

TEST(GraphExecutorFuzz, RandomDagsMatchSerialBitwiseAcrossPoolSizes) {
  // Includes the degenerate shapes the executor must not trip on: the
  // zero-op and single-op graphs, single-device graphs (everything FIFO-
  // serialised), and dense multi-slot WAR chains.
  const std::vector<ExecFuzzCase> cases = {
      {101, 0, 1, 0},  {102, 1, 1, 0},  {103, 1, 4, 2},  {104, 7, 1, 0},
      {105, 16, 2, 1}, {106, 33, 4, 3}, {107, 60, 4, 5}, {108, 45, 8, 2},
      {109, 24, 3, 4}, {110, 80, 6, 6},
  };
  for (const auto& c : cases) {
    Cluster cluster = Cluster::dgx_a100_pod(1, std::max(c.devices, 2));
    ExecFuzzBuffers reference;
    OpGraph serial_graph = random_exec_graph(c, reference);
    cluster.run_functional(serial_graph, ExecutionPolicy::kSerial);

    for (std::size_t threads : {1u, 4u, 8u}) {
      ThreadPool::reset_shared(threads);
      ExecFuzzBuffers observed;
      OpGraph parallel_graph = random_exec_graph(c, observed);
      cluster.run_functional(parallel_graph, ExecutionPolicy::kParallel);
      ASSERT_EQ(reference.cells.size(), observed.cells.size());
      for (std::size_t i = 0; i < reference.cells.size(); ++i) {
        // Bitwise: identical observable writes, any pool size.
        ASSERT_EQ(reference.cells[i], observed.cells[i])
            << "seed " << c.seed << " cell " << i << " threads " << threads;
      }
      for (std::size_t s = 0; s < reference.slots.size(); ++s) {
        ASSERT_EQ(reference.slots[s], observed.slots[s])
            << "seed " << c.seed << " slot " << s << " threads " << threads;
      }
    }
  }
  ThreadPool::reset_shared(0);
}

TEST(GraphExecutorFuzz, ProfiledTracesAreWellFormedAcrossPoolSizes) {
  // Trace well-formedness under profiling: every op is recorded exactly
  // once (its own slot, no duplicates possible — so: recorded at all),
  // start <= end, the executing worker id names a real drain loop for the
  // pool size, and the profiled run still matches the serial reference
  // bitwise. Across the same shapes the bitwise fuzz uses.
  const std::vector<ExecFuzzCase> cases = {
      {301, 0, 1, 0},  {302, 1, 1, 0},  {303, 16, 2, 1},
      {304, 33, 4, 3}, {305, 60, 4, 5}, {306, 45, 8, 2},
  };
  for (const auto& c : cases) {
    ExecFuzzBuffers reference;
    OpGraph serial_graph = random_exec_graph(c, reference);
    run_graph_serial(serial_graph);

    for (std::size_t threads : {1u, 4u, 8u}) {
      ThreadPool::reset_shared(threads);
      ExecFuzzBuffers observed;
      OpGraph g = random_exec_graph(c, observed);
      ExecutionProfile profile;
      run_graph_parallel(g, ThreadPool::shared(), &profile);

      ASSERT_EQ(profile.size(), g.size());
      // Drain loops: the caller (0) plus at most min(pool, ops-1) helpers.
      const int max_worker = static_cast<int>(
          std::min(threads, static_cast<std::size_t>(
                                std::max(g.size() - 1, 0))));
      for (int id = 0; id < g.size(); ++id) {
        const OpSample& s = profile.sample(id);
        ASSERT_TRUE(s.recorded())
            << "seed " << c.seed << " op " << id << " never recorded";
        EXPECT_LE(s.start_ns, s.end_ns) << "seed " << c.seed << " op " << id;
        EXPECT_GE(s.worker, 0) << "seed " << c.seed << " op " << id;
        EXPECT_LE(s.worker, max_worker)
            << "seed " << c.seed << " op " << id << " threads " << threads;
      }
      for (std::size_t i = 0; i < reference.cells.size(); ++i) {
        ASSERT_EQ(reference.cells[i], observed.cells[i])
            << "seed " << c.seed << " cell " << i << " threads " << threads;
      }
      // The reconstructed timeline is internally consistent too: ids
      // echo the slot, durations non-negative, makespan covers them.
      const MeasuredTimeline tl =
          build_timeline(g, profile, std::max(c.devices, 1));
      for (int id = 0; id < g.size(); ++id) {
        const MeasuredOp& m = tl.ops[static_cast<std::size_t>(id)];
        ASSERT_EQ(m.id, id);
        EXPECT_GE(m.seconds(), 0.0);
        EXPECT_LE(m.end, tl.makespan + 1e-12);
      }
    }
  }
  ThreadPool::reset_shared(0);
}

TEST(GraphExecutorFuzz, ConcurrentRandomFailuresTerminateAcrossPoolSizes) {
  // Random DAGs with several ops replaced by throwers: whatever the shape
  // and pool size, the run must rethrow one of the planted errors (never a
  // mangled or foreign one), never hang, leave no stray enqueued tasks
  // behind, and leave the pool fully reusable. Seeds cover sparse and
  // dense graphs, and failer counts from 1 to 5.
  const std::vector<ExecFuzzCase> cases = {
      {401, 12, 2, 1}, {402, 33, 4, 3}, {403, 60, 4, 5},
      {404, 45, 8, 2}, {405, 80, 6, 6},
  };
  for (const auto& c : cases) {
    const int failers = 1 + static_cast<int>(c.seed % 5);
    for (std::size_t threads : {1u, 4u, 8u}) {
      ThreadPool::reset_shared(threads);
      ExecFuzzBuffers buf;
      OpGraph g = random_exec_graph(c, buf);
      Rng rng(c.seed * 7919);
      for (int k = 0; k < failers; ++k) {
        const int victim = static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(g.size())));
        g.op(victim).fn = [victim] {
          throw TransientError("fuzz planted " + std::to_string(victim));
        };
      }
      const std::uint64_t before = ThreadPool::shared().tasks_enqueued();
      try {
        run_graph_parallel(g, ThreadPool::shared());
        FAIL() << "seed " << c.seed << " threads " << threads
               << ": planted failures did not surface";
      } catch (const TransientError& e) {
        EXPECT_NE(std::string(e.what()).find("fuzz planted"),
                  std::string::npos)
            << "seed " << c.seed;
      }
      EXPECT_LE(ThreadPool::shared().tasks_enqueued() - before,
                static_cast<std::uint64_t>(g.size()))
          << "seed " << c.seed << " threads " << threads;

      ExecFuzzBuffers clean_buf;
      OpGraph clean = random_exec_graph(c, clean_buf);
      EXPECT_NO_THROW(run_graph_parallel(clean, ThreadPool::shared()))
          << "pool unusable after failure, seed " << c.seed;
    }
  }
  ThreadPool::reset_shared(0);
}

TEST(GraphExecutorFuzz, PlantedMissingWarEdgeIsRejectedLoudly) {
  // Take a validator-clean random graph and append two writers of a fresh
  // shared slot on different devices with no ordering edge between them —
  // the exact shape of a forgotten WAR edge. The validator must reject
  // every such graph; re-adding the chain edge must make it pass again.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ExecFuzzCase c{200 + seed, static_cast<int>(seed % 12), 4, 2};
    ExecFuzzBuffers buf;
    OpGraph g = random_exec_graph(c, buf);
    static float shared_slot = 0.0f;

    Op first;
    first.label = "war_first";
    first.stream = static_cast<StreamKind>(seed % 3);
    first.devices = {0};
    first.fn = [] { shared_slot += 1.0f; };
    first.reads.push_back(access_floats(&shared_slot, 0, 1));
    first.writes.push_back(access_floats(&shared_slot, 0, 1));
    const int first_id = g.add(std::move(first));

    Op second;
    second.label = "war_second";
    second.stream = static_cast<StreamKind>((seed + 1) % 3);
    second.devices = {1 + static_cast<int>(seed % 3)};
    second.fn = [] { shared_slot *= 2.0f; };
    second.reads.push_back(access_floats(&shared_slot, 0, 1));
    second.writes.push_back(access_floats(&shared_slot, 0, 1));
    const int second_id = g.add(std::move(second));

    EXPECT_THROW(validate_hazards(g), CheckError) << "seed " << seed;
    g.op(second_id).deps.push_back(first_id);
    EXPECT_NO_THROW(validate_hazards(g)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mpipe::sim
