/// Domain scenario 1 — pre-training a GPT-style MoE transformer block.
/// The attention half runs data-parallel (real multi-head attention with
/// manual backward); the FFN half is the distributed MPipeMoE layer. One
/// synthetic-corpus regression objective, full fwd/bwd/Adam loop, exactly
/// the per-block structure of Switch-Transformer-style models the paper's
/// introduction motivates.

#include <cstdio>
#include <fstream>

#include "common/units.h"
#include "core/moe_layer.h"
#include "moe/moe_block.h"
#include "runtime/adam.h"
#include "runtime/workload.h"
#include "tensor/ops.h"

int main() {
  using namespace mpipe;

  constexpr int kDevices = 4;
  constexpr std::int64_t kModel = 32;
  constexpr std::int64_t kHidden = 128;
  constexpr std::int64_t kTokens = 64;  // per device ("sequence length")

  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, kDevices);

  // Distributed MoE FFN: one expert per simulated GPU.
  core::MoELayerOptions mo;
  mo.d_model = kModel;
  mo.d_hidden = kHidden;
  mo.num_experts = 8;
  mo.memory_reuse = true;
  mo.num_partitions = 2;
  mo.parallel_execution = true;  // concurrent op-graph executor
  mo.profile_execution = true;   // per-op wall-clock vs simulated timeline

  core::MoELayer moe_ffn(cluster, mo);

  // Data-parallel attention scaffolding (one replica per device).
  Rng rng(11);
  std::vector<moe::TransformerBlockPieces> blocks;
  for (int d = 0; d < kDevices; ++d) {
    Rng block_rng = rng;  // identical replicas, data-parallel style
    blocks.emplace_back(kModel, /*heads=*/4, /*causal=*/true, block_rng);
  }

  runtime::WorkloadOptions wo;
  wo.d_model = kModel;
  wo.tokens_per_device = kTokens;
  wo.num_devices = kDevices;
  runtime::WorkloadGenerator workload(wo);

  // Optimizer over everything: MoE params + per-replica attention params.
  std::vector<Tensor*> params = moe_ffn.parameters();
  std::vector<Tensor*> grads = moe_ffn.gradients();
  for (auto& block : blocks) {
    for (Tensor* p : block.attention().parameters()) params.push_back(p);
    for (Tensor* g : block.attention().gradients()) grads.push_back(g);
    params.push_back(&block.ln1().gamma());
    grads.push_back(&block.ln1().gamma_grad());
    params.push_back(&block.ln2().gamma());
    grads.push_back(&block.ln2().gamma_grad());
  }
  runtime::AdamOptions ao;
  ao.lr = 2e-3f;
  runtime::Adam adam(params, grads, ao);

  std::printf("=== MoE transformer block training (4 simulated GPUs) ===\n");
  constexpr int kSteps = 8;
  for (int step = 0; step < kSteps; ++step) {
    // Only the step whose trace is dumped below pays the JSON
    // serialisation; the per-step model-error lines need just the diffs.
    if (step == kSteps - 1) moe_ffn.set_trace_execution(true);
    auto batch = workload.next_batch();
    auto targets = workload.targets_for(batch);

    // Forward: attention (per device) -> distributed MoE FFN -> residual.
    std::vector<moe::BlockForward> fwd(kDevices);
    std::vector<Tensor> ffn_inputs;
    for (int d = 0; d < kDevices; ++d) {
      fwd[d] = blocks[d].forward_pre_ffn(batch[d]);
      ffn_inputs.push_back(fwd[d].ffn_input);
    }
    auto ffn_out = moe_ffn.forward(ffn_inputs);
    std::vector<Tensor> outputs;
    for (int d = 0; d < kDevices; ++d) {
      outputs.push_back(
          moe::TransformerBlockPieces::finish_forward(fwd[d], ffn_out[d]));
    }

    // Loss + backward.
    double loss = 0.0;
    std::vector<Tensor> dy;
    for (int d = 0; d < kDevices; ++d) {
      loss += mse_loss(outputs[d], targets[d]);
      dy.push_back(mse_loss_grad(outputs[d], targets[d]));
    }
    loss /= kDevices;

    moe_ffn.zero_grad();
    for (auto& block : blocks) block.zero_grad();
    auto d_ffn_in = moe_ffn.backward(dy);
    for (int d = 0; d < kDevices; ++d) {
      blocks[d].backward(dy[d], d_ffn_in[d], batch[d], fwd[d]);
    }
    adam.step();

    const auto& rep = moe_ffn.last_report();
    std::printf("step %d  loss %.4f  sim-step %.3f ms (n=%d, %s)\n", step,
                loss, to_ms(rep.step_seconds()), rep.n_partitions,
                core::to_string(rep.strategy).c_str());
    std::printf("        measured vs modeled: %s\n",
                rep.model_error_summary().c_str());
  }

  // The profiled timelines are chrome://tracing JSON — dump the last
  // step's for inspection (measured tracks next to the simulated ones).
  const auto& rep = moe_ffn.last_report();
  std::ofstream("moe_step_trace.fwd.json") << rep.forward_trace_json;
  std::printf("wrote moe_step_trace.fwd.json (open in chrome://tracing)\n");
  return 0;
}
