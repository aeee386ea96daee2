/// google-benchmark microbench: one full MoE training step end to end —
/// forward, MSE loss, backward, Adam — under the serial reference executor
/// and the concurrent op-graph executor at 1/4/8 pool workers. This is the
/// perf gate for the op-level concurrency layer: on a many-core host the
/// parallel rows should beat serial (independent devices' GEMMs and the
/// comm/mem-stream copies overlap); on a small host they document the
/// executor's scheduling overhead instead.
///
/// Every row uses MeasureProcessCPUTime(): the parallel executor runs ops
/// on pool workers, so the main thread's CPU clock would flatter those
/// rows. items_per_second is training steps per CPU second of all threads,
/// which the perf gate compares and a descheduled run on a shared host
/// does not move; real_time is the wall-clock step, where the overlap gain
/// of the parallel rows shows.
///
/// The step (d_model 128, d_hidden 512, 512 tokens on each of 4 devices,
/// ~50 ms of CPU) is sized so the parallel rows overlap ops on every run.
/// At a fifth of that CPU per step (d_model 64, d_hidden 256, 256 tokens;
/// ~180 ops of ~50 us) whether the executor overlapped ops at all changed
/// from run to run on a 4-vCPU host: some runs woke sleeping drainers ~5
/// times a step and ran the ops almost serially (real/cpu ~1.0), others
/// ~30 times and spread them over the workers (real/cpu 0.84-0.89), at
/// 30-50% more CPU per step. The mode held for minutes, so the parallel
/// rows read 66-82 or 91-100 steps per CPU second by sweep. At this size
/// every run counted 56-92 wake-ups a step.

#include <benchmark/benchmark.h>

#include "common/thread_pool.h"
#include "core/moe_layer.h"
#include "runtime/trainer.h"

namespace {

using namespace mpipe;

struct StepHarness {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer;
  runtime::Trainer trainer;

  static core::MoELayerOptions layer_options(bool parallel,
                                             bool profile = false,
                                             DType dtype = DType::kF32) {
    core::MoELayerOptions o;
    o.d_model = 128;
    o.d_hidden = 512;
    o.num_experts = 4;
    o.num_partitions = 4;  // fixed n: no search noise in the timing
    o.memory_reuse = true;
    o.strategy = core::ReuseStrategy::kS1;
    o.parallel_execution = parallel;
    o.profile_execution = profile;
    o.compute_dtype = dtype;
    o.seed = 13;
    return o;
  }

  static runtime::TrainerOptions trainer_options() {
    runtime::TrainerOptions t;
    t.workload.d_model = 128;
    t.workload.tokens_per_device = 512;
    t.workload.num_devices = 4;
    t.workload.seed = 29;
    // Keep the bench self-contained: measured curves would shift with the
    // committed CSVs, and the cost model does not affect the math.
    t.load_calibration = false;
    return t;
  }

  explicit StepHarness(bool parallel, bool profile = false,
                       DType dtype = DType::kF32)
      : layer(cluster, layer_options(parallel, profile, dtype)),
        trainer(layer, trainer_options()) {}
};

void run_steps(benchmark::State& state, bool parallel, std::size_t workers,
               bool profile = false) {
  ThreadPool::reset_shared(workers);
  StepHarness harness(parallel, profile);
  harness.trainer.train_step();  // warm up: buffers, staging, pool
  std::int64_t steps = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.trainer.train_step());
    ++steps;
  }
  state.SetItemsProcessed(steps);
  ThreadPool::reset_shared(0);
}

void BM_TrainStepSerial(benchmark::State& state) {
  run_steps(state, /*parallel=*/false,
            static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_TrainStepSerial)
    ->Arg(1)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_TrainStepParallel(benchmark::State& state) {
  run_steps(state, /*parallel=*/true,
            static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_TrainStepParallel)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// Wall-clock profiling on (per-op timestamps + timeline reconstruction +
// measured-vs-modeled diff + trace JSON each step): the row documents the
// observability overhead against BM_TrainStepSerial/1. The recording
// itself is two steady_clock reads per op; the reconstruction/diff/JSON
// dominate whatever gap shows here.
void BM_TrainStepProfiled(benchmark::State& state) {
  run_steps(state, /*parallel=*/false,
            static_cast<std::size_t>(state.range(0)), /*profile=*/true);
}
BENCHMARK(BM_TrainStepProfiled)
    ->Arg(1)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// ---- mixed-precision step rows --------------------------------------------
// One row per compute_dtype, serial executor, identical workload. steps/s
// documents the quantize/dequantize cost on the hot path; the counters are
// the paper's reduction axes, read off the StepReport of the last step:
// alltoall_payload_bytes (Fig-10 — bf16 is exactly half the f32 row, int8
// a quarter plus one fp32 scale per row) and expert_weight_bytes /
// peak_activation_bytes (Fig-9 — quantized weight copies and wire-format
// payload rings on the busiest device).
void run_steps_mixed(benchmark::State& state, DType dtype) {
  ThreadPool::reset_shared(1);
  StepHarness harness(/*parallel=*/false, /*profile=*/false, dtype);
  harness.trainer.train_step();  // warm up: buffers, staging, pool
  // Counters come from the *first* step: the router is fp32 for every
  // dtype, so step 1's routing — and with it the busiest sender's row
  // count — is identical across the three rows, and the byte ratios read
  // as pure dtype effects (later steps' trainings diverge numerically and
  // with them the routing).
  const core::StepReport r = harness.layer.last_report();
  std::int64_t steps = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.trainer.train_step());
    ++steps;
  }
  state.SetItemsProcessed(steps);
  state.counters["alltoall_payload_bytes"] =
      static_cast<double>(r.alltoall_payload_bytes);
  state.counters["expert_weight_bytes"] =
      static_cast<double>(r.expert_weight_bytes);
  state.counters["peak_activation_bytes"] =
      static_cast<double>(r.memory.activations);
  state.counters["peak_total_bytes"] =
      static_cast<double>(r.memory.total_peak);
  ThreadPool::reset_shared(0);
}

void BM_TrainStepMixedF32(benchmark::State& state) {
  run_steps_mixed(state, DType::kF32);
}
BENCHMARK(BM_TrainStepMixedF32)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_TrainStepMixedBf16(benchmark::State& state) {
  run_steps_mixed(state, DType::kBF16);
}
BENCHMARK(BM_TrainStepMixedBf16)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_TrainStepMixedInt8(benchmark::State& state) {
  run_steps_mixed(state, DType::kI8);
}
BENCHMARK(BM_TrainStepMixedInt8)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
