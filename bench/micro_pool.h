#pragma once
/// Pool settings shared by the micro benches whose rows run one kernel on
/// one pool worker: main() pins the shared pool to one worker (the
/// end-to-end benchmark's setting), so parallel_for runs inline and the
/// main thread's CPU time, google-benchmark's default clock, covers all the
/// work. A row that exists to measure the pool's fan-out holds a
/// MachineSizedPool and registers MeasureProcessCPUTime(), so its CPU time
/// counts every worker.

#include <benchmark/benchmark.h>

#include "common/thread_pool.h"

namespace mpipe::bench {

/// Puts a machine-sized shared pool in place for one benchmark run, then
/// restores the one worker the other rows run on.
struct MachineSizedPool {
  MachineSizedPool() { ThreadPool::reset_shared(0); }
  ~MachineSizedPool() { ThreadPool::reset_shared(1); }
  MachineSizedPool(const MachineSizedPool&) = delete;
  MachineSizedPool& operator=(const MachineSizedPool&) = delete;
};

/// The benches' main(): pins the shared pool to one worker, then runs the
/// registered benchmarks.
inline int run_on_one_worker(int argc, char** argv) {
  ThreadPool::reset_shared(1);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

}  // namespace mpipe::bench
