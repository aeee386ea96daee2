/// Quickstart: build a simulated 8-GPU node, create the MPipeMoE layer with
/// adaptive pipelining + memory reuse (the paper's Python snippet, in C++),
/// run one real training step, and print the timing/memory report.

#include <cstdio>

#include "common/units.h"
#include "core/moe_layer.h"
#include "runtime/trainer.h"
#include "sim/trace.h"

int main() {
  using namespace mpipe;

  // An 8-GPU DGX-A100-class node.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(/*nodes=*/1,
                                                    /*gpus_per_node=*/8);

  // The paper's API:
  //   moe_layer = pmoe.MoELayer(d_model=1024, d_hidden=4096, top_k=1,
  //                             num_experts=64, pipeline=True,
  //                             memory_reuse=True)
  core::MoELayerOptions options;
  options.d_model = 64;      // scaled down so the functional step is quick
  options.d_hidden = 256;
  options.num_experts = 8;   // one expert per simulated GPU
  options.pipeline = true;    // adaptive granularity (Algorithm 1)
  options.memory_reuse = true;  // adaptive strategy (S1–S4, §III-E)
  options.parallel_execution = true;  // concurrent op-graph executor
  core::MoELayer layer(cluster, options);

  runtime::TrainerOptions topt;
  topt.workload.d_model = options.d_model;
  topt.workload.tokens_per_device = 128;
  topt.workload.num_devices = cluster.num_devices();
  topt.steps = 5;
  // Online measured-vs-modeled loop: profile the first two steps' per-op
  // wall clock, fit compute/comm/memcpy correction factors, and let the
  // adaptive selectors re-rank the remaining steps with corrected costs.
  topt.profile_warmup_steps = 2;
  runtime::Trainer trainer(layer, topt);
  trainer.run();
  const auto& corr = trainer.corrections();
  std::printf("fitted corrections (measured/modeled): compute x%.2f, "
              "comm x%.2f, memcpy x%.2f\n",
              corr.compute, corr.comm, corr.memcpy);

  const auto& report = layer.last_report();
  std::printf("=== MPipeMoE quickstart ===\n");
  std::printf("%s\n", trainer.metrics().summary().c_str());
  std::printf("chosen partitions n = %d, strategy = %s\n",
              report.n_partitions, core::to_string(report.strategy).c_str());
  std::printf("simulated step time: fwd %.3f ms + bwd %.3f ms\n",
              to_ms(report.forward_seconds), to_ms(report.backward_seconds));
  std::printf("peak memory (busiest GPU): %.1f MiB  [states %.1f | act %.1f "
              "| temp %.1f]\n",
              mib(static_cast<double>(report.memory.total_peak)),
              mib(static_cast<double>(report.memory.model_states)),
              mib(static_cast<double>(report.memory.activations)),
              mib(static_cast<double>(report.memory.temp_buffers)));
  std::printf("mean GPU utilization: %.1f%%\n",
              report.mean_gpu_utilization * 100.0);

  // Paper-scale timing-only step (GPT-XL-like layer on 64 GPUs).
  sim::Cluster pod = sim::Cluster::dgx_a100_pod(8, 8);
  core::MoELayerOptions big;
  big.d_model = 2048;
  big.d_hidden = 8192;
  big.num_experts = 64;
  big.mode = core::ExecutionMode::kTimingOnly;
  core::MoELayer big_layer(pod, big);
  const auto big_report = big_layer.step_timing(/*tokens_per_device=*/8192);
  std::printf("\nGPT-XL-like layer, 64 GPUs, B=8k (timing-only):\n");
  std::printf("  step %.2f ms with n=%d, strategy %s, peak %.0f MiB/GPU\n",
              to_ms(big_report.step_seconds()), big_report.n_partitions,
              core::to_string(big_report.strategy).c_str(),
              mib(static_cast<double>(big_report.memory.total_peak)));
  return 0;
}
