// Smoke test: one full functional training step of MPipeMoE end to end.

#include <gtest/gtest.h>

#include "core/moe_layer.h"
#include "runtime/trainer.h"

namespace mpipe {
namespace {

TEST(Smoke, OneTrainingStepRuns) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayerOptions options;
  options.d_model = 16;
  options.d_hidden = 32;
  options.num_experts = 4;
  options.num_partitions = 2;
  core::MoELayer layer(cluster, options);

  runtime::TrainerOptions topt;
  topt.workload.d_model = 16;
  topt.workload.tokens_per_device = 24;
  topt.workload.num_devices = 4;
  topt.steps = 1;
  runtime::Trainer trainer(layer, topt);
  const double loss = trainer.train_step();
  EXPECT_GT(loss, 0.0);
  EXPECT_GT(layer.last_report().step_seconds(), 0.0);
}

}  // namespace
}  // namespace mpipe
