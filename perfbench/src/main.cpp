/// End-to-end benchmark program. Runs one workload through the library's
/// public API and prints, as its last stdout line, one JSON object with
/// the run's correctness, operation counts and metrics (end-to-end ones
/// by default, per-layer ones with --trace 1). Normally launched through
/// perfbench/run.py, which builds this binary first.
///
///   mpipe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: mpipe_perfbench --workload "
               "<train_pipelined|train_dynamic_bf16|serve_bursty> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <rev>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--commit") {
        args.commit = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  void (*workload)(const Args&, perfbench::Result&) = nullptr;
  if (args.workload == "train_pipelined") {
    workload = perfbench::run_train_pipelined;
  } else if (args.workload == "train_dynamic_bf16") {
    workload = perfbench::run_train_dynamic_bf16;
  } else if (args.workload == "serve_bursty") {
    workload = perfbench::run_serve_bursty;
  } else {
    usage("unknown workload " + args.workload);
  }

  // One pool worker: parallel_for then runs inline on the caller, so wall
  // time measures the kernels and the schedule, not the host scheduler
  // handing chunks between threads on a shared machine.
  constexpr std::size_t kPoolWorkers = 1;
  mpipe::ThreadPool::reset_shared(kPoolWorkers);

  double load[1] = {-1.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"pool_size\": %zu, \"loadavg_1m\": "
      "%.2f, \"build_type\": \"%s\", \"commit\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      mpipe::ThreadPool::shared().size(), load[0], PERFBENCH_BUILD_TYPE,
      args.commit.c_str());
  std::fflush(stdout);

  perfbench::Result result;
  try {
    workload(args, result);
  } catch (const std::exception& e) {
    result.attempt(1);
    result.fail(std::string("workload aborted: ") + e.what());
  }
  result.set("bench.error_rate",
             static_cast<double>(result.failed()) /
                 static_cast<double>(std::max<std::int64_t>(
                     1, result.attempted())));
  const std::string line = perfbench::result_json(
      result,
      args.trace ? perfbench::per_layer_metrics()
                 : perfbench::end_to_end_metrics(),
      /*require_all=*/!args.trace);
  std::printf("%s\n", line.c_str());
  return result.failed() == 0 ? 0 : 1;
}
