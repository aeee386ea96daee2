/// Domain scenario 2 — Algorithm 1 in action on dynamic batch sizes.
/// MoE training sees a wide, recurring range of token counts per step
/// (Tutel-style dynamic batching). The demo replays a bucketed batch-size
/// trace through an adaptive GPT-XL-like layer on a 64-GPU simulated pod,
/// showing how the granularity search amortises: full searches only for
/// novel sizes, range/cache hits after that, and the final range set
/// mapping batch intervals to their optimal partition count.

#include <cstdio>

#include "common/units.h"
#include "core/moe_layer.h"
#include "runtime/workload.h"

int main() {
  using namespace mpipe;

  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(8, 8);
  core::MoELayerOptions o;
  o.d_model = 2048;
  o.d_hidden = 8192;
  o.num_experts = 64;
  o.num_partitions = 0;  // adaptive (Algorithm 1)
  o.memory_reuse = false;
  o.mode = core::ExecutionMode::kTimingOnly;

  core::MoELayer layer(cluster, o);

  // 40 steps over 6 recurring bucket sizes in [4k, 30k].
  const auto trace = runtime::batch_size_trace(4096, 30720, 40, 6, 7);

  std::printf("=== adaptive pipeline granularity on a dynamic batch trace "
              "===\n");
  std::printf("%-6s %-8s %-4s %-12s %s\n", "step", "B", "n", "step(ms)",
              "search stats (full/range/cache)");
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto report = layer.step_timing(trace[i]);
    const auto& stats = layer.searcher().stats();
    std::printf("%-6zu %-8lld %-4d %-12.2f %zu/%zu/%zu\n", i,
                static_cast<long long>(trace[i]), report.n_partitions,
                to_ms(report.step_seconds()), stats.full_searches,
                stats.range_hits, stats.cache_hits);
  }
  std::printf("\nfinal range set: %s\n",
              layer.searcher().ranges().to_string().c_str());
  std::printf("total trial measurements: %zu (vs %zu steps x %zu candidate "
              "n values = %zu without Algorithm 1)\n",
              layer.searcher().stats().trials, trace.size(),
              layer.options().candidate_partitions.size(),
              trace.size() * layer.options().candidate_partitions.size());
  return 0;
}
