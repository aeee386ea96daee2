#pragma once
/// Pool settings shared by the micro benches whose rows run one kernel on
/// one pool worker: main() pins the shared pool to one worker (the
/// end-to-end benchmark's setting), so parallel_for runs inline and the
/// main thread's CPU time, google-benchmark's default clock, covers all the
/// work. A row that exists to measure the pool's fan-out holds a
/// MachineSizedPool and registers MeasureProcessCPUTime(), so its CPU time
/// counts every worker.
///
/// The machine-sized pool's workers are pinned one per CPU. Each
/// repetition of a row builds a fresh pool, and unpinned new threads start
/// on their creator's CPU: some repetitions then ran the whole fan-out on
/// one CPU (CPU time equal to wall time) and others on ~2.5, so a row's
/// rate per CPU second hopped between the two modes from sweep to sweep.

#include <benchmark/benchmark.h>
#include <pthread.h>
#include <sched.h>

#include <condition_variable>
#include <future>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"

namespace mpipe::bench {

/// Puts a machine-sized shared pool in place for one benchmark run, its
/// workers pinned one per CPU, then restores the one worker the other rows
/// run on. If the OS refuses a pin the row is skipped with an error, which
/// the perf gate reports as a missing row, rather than timed unpinned.
class MachineSizedPool {
 public:
  explicit MachineSizedPool(benchmark::State& state) {
    ThreadPool::reset_shared(0);
    if (!pin_workers(ThreadPool::shared())) {
      state.SkipWithError("could not pin the pool's workers one per CPU");
    }
  }
  ~MachineSizedPool() { ThreadPool::reset_shared(1); }
  MachineSizedPool(const MachineSizedPool&) = delete;
  MachineSizedPool& operator=(const MachineSizedPool&) = delete;

 private:
  /// Pins worker i to the i-th CPU (mod their count) the process may run
  /// on. Each worker takes one task that blocks until every worker holds
  /// one, so every task pins a different worker's thread.
  static bool pin_workers(ThreadPool& pool) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.empty()) return false;

    const std::size_t workers = pool.size();
    std::mutex mu;
    std::condition_variable all_arrived;
    std::size_t arrived = 0;
    bool all_pinned = true;
    std::vector<std::future<void>> done;
    for (std::size_t w = 0; w < workers; ++w) {
      done.push_back(pool.submit([&] {
        std::unique_lock<std::mutex> lock(mu);
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[arrived % cpus.size()], &one);
        all_pinned &=
            pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
        ++arrived;
        all_arrived.notify_all();
        all_arrived.wait(lock, [&] { return arrived == workers; });
      }));
    }
    for (auto& f : done) f.get();
    return all_pinned;
  }
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
