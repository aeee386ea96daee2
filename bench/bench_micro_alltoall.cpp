/// google-benchmark microbench: simulated AllToAll scheduling throughput —
/// how fast the discrete-event engine replays collective-heavy graphs
/// (this bounds the cost of the adaptive search's trial probes). The
/// replay runs on the calling thread, so rows keep the default clock, the
/// main thread's CPU time; items_per_second is collectives (and, for
/// BM_AdaptiveProbe, searcher trials) per CPU second.

#include <benchmark/benchmark.h>

#include "comm/all_to_all.h"
#include "common/units.h"
#include "core/moe_layer.h"
#include "sim/cluster.h"

namespace {

using namespace mpipe;

void BM_TimedAllToAllGraph(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  const int collectives = static_cast<int>(state.range(1));
  sim::Cluster cluster =
      sim::Cluster::dgx_a100_pod(std::max(1, devices / 8),
                                 std::min(8, devices));
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  for (auto _ : state) {
    sim::OpGraph g;
    for (int i = 0; i < collectives; ++i) {
      comm::alltoall_timed(g, world, 1 * MiB, "a2a", {});
    }
    const auto timing = cluster.time_only(g);
    benchmark::DoNotOptimize(timing.makespan);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * collectives);
}
BENCHMARK(BM_TimedAllToAllGraph)
    ->Args({8, 8})
    ->Args({8, 64})
    ->Args({64, 8})
    ->Args({64, 64});

void BM_AdaptiveProbe(benchmark::State& state) {
  // Cost of one full Algorithm-1 trial sweep at 64 devices;
  // items_per_second is the searcher's trials (one corrected probe per
  // (B, n) candidate) per CPU second.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(8, 8);
  std::int64_t trials = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh layer so the cache is cold every iteration.
    core::MoELayerOptions o;
    o.d_model = 2048;
    o.d_hidden = 8192;
    o.num_experts = 64;
    o.mode = core::ExecutionMode::kTimingOnly;
    core::MoELayer layer(cluster, o);
    state.ResumeTiming();
    benchmark::DoNotOptimize(layer.step_timing(8192).n_partitions);
    trials += static_cast<std::int64_t>(layer.searcher().stats().trials);
  }
  state.SetItemsProcessed(trials);
}
BENCHMARK(BM_AdaptiveProbe)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
