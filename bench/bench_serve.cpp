/// google-benchmark closed-loop serving bench: a fresh Server per
/// iteration replays a fixed open-arrival trace (Poisson and bursty
/// shapes) through the continuous batcher and the forward-only path.
/// items_per_second is real tokens served per CPU second of all threads
/// (MeasureProcessCPUTime(): the host-side cost of batching +
/// forward_only, which the perf gate compares; real_time keeps the
/// wall-clock replay); the counters carry the
/// virtual-clock serving quality — p50/p99 end-to-end latency in
/// milliseconds and tokens/s on the simulated timeline — which is what
/// joins the BENCH_*.json trajectory.
///
/// main() pins the shared pool to one worker, the end-to-end benchmark's
/// setting, so the layer runs every op on the main thread. On the
/// machine-sized pool the ~40-token batches' kernels fan
/// out and wait on worker wake-ups: one sweep's repetitions spread real/cpu
/// over 0.74-3.3 and the suite's per-CPU-second rate moved 1.56x between
/// sweeps, too much for the gate.

#include <benchmark/benchmark.h>

#include "core/moe_layer.h"
#include "micro_pool.h"
#include "serve/server.h"
#include "serve/traffic.h"

namespace {

using namespace mpipe;

core::MoELayerOptions layer_options(DType dtype = DType::kF32) {
  core::MoELayerOptions o;
  o.d_model = 64;
  o.d_hidden = 256;
  o.num_experts = 4;
  o.num_partitions = 2;  // fixed n: no search noise in the timing
  o.memory_reuse = true;
  o.compute_dtype = dtype;
  o.seed = 13;
  return o;
}

serve::TrafficOptions traffic_options() {
  serve::TrafficOptions t;
  t.num_requests = 32;
  t.rate_rps = 2000.0;
  t.min_tokens = 1;
  t.max_tokens = 16;
  t.d_model = 64;
  t.seed = 29;
  return t;
}

void run_serve(benchmark::State& state,
               std::vector<serve::ServeRequest> (*make_trace)(
                   const serve::TrafficOptions&),
               DType dtype = DType::kF32) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, layer_options(dtype));
  serve::ServerOptions sopt;
  sopt.slo.max_tokens_per_device = 64;
  const auto trace = make_trace(traffic_options());

  std::int64_t tokens = 0;
  double p50 = 0.0, p99 = 0.0, virtual_tps = 0.0, batch_tokens = 0.0;
  for (auto _ : state) {
    serve::Server server(layer, sopt);
    const serve::ServeMetrics& m = server.run(trace);
    tokens += static_cast<std::int64_t>(m.total_tokens());
    p50 = m.latency_percentile(0.5);
    p99 = m.latency_percentile(0.99);
    virtual_tps = m.tokens_per_second();
    batch_tokens = m.mean_batch_tokens();
  }
  state.SetItemsProcessed(tokens);
  state.counters["p50_ms"] = p50 * 1e3;
  state.counters["p99_ms"] = p99 * 1e3;
  state.counters["virtual_tokens_per_s"] = virtual_tps;
  state.counters["mean_batch_tokens"] = batch_tokens;
  // Reduction axes of the last dispatch (Fig-10 payload / Fig-9 weights):
  // forward_only fills the same StepReport fields training does, so the
  // bf16 row's bytes read directly against the f32 rows above it.
  const core::StepReport& r = layer.last_report();
  state.counters["alltoall_payload_bytes"] =
      static_cast<double>(r.alltoall_payload_bytes);
  state.counters["expert_weight_bytes"] =
      static_cast<double>(r.expert_weight_bytes);
}

// MeasureProcessCPUTime: the CPU clock counts every thread, so the rows
// stay honest if the layer ever runs work off the main thread.
void BM_ServePoisson(benchmark::State& state) {
  run_serve(state, serve::poisson_trace);
}
BENCHMARK(BM_ServePoisson)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeBursty(benchmark::State& state) {
  run_serve(state, serve::bursty_trace);
}
BENCHMARK(BM_ServeBursty)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

/// The Poisson trace served in bf16 wire/storage format: tokens/s vs
/// BM_ServePoisson is the serving-side cost of the reduced dtype, the
/// byte counters its payload/weight savings.
void BM_ServePoissonBf16(benchmark::State& state) {
  run_serve(state, serve::poisson_trace, DType::kBF16);
}
BENCHMARK(BM_ServePoissonBf16)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return mpipe::bench::run_on_one_worker(argc, argv);
}
