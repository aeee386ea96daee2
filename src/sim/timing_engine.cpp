#include "sim/timing_engine.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>

#include "common/check.h"

namespace mpipe::sim {

TimingEngine::TimingEngine(const InterferenceModel& interference,
                           int num_devices)
    : interference_(interference), num_devices_(num_devices) {
  MPIPE_EXPECTS(num_devices > 0, "need at least one device");
}

namespace {

struct RunningOp {
  int id;
  double remaining;  // seconds at unit rate
  double rate;       // current slowdown factor in (0, 1]
};

}  // namespace

TimingResult TimingEngine::run(const OpGraph& graph) {
  graph.validate(num_devices_);

  const int n = graph.size();
  TimingResult result;
  result.op_times.assign(static_cast<std::size_t>(n), OpTiming{});
  result.busy.assign(static_cast<std::size_t>(num_devices_), {0.0, 0.0, 0.0});
  result.weighted_compute.assign(static_cast<std::size_t>(num_devices_), 0.0);
  if (n == 0) return result;

  // Stream FIFO queues: (device, kind) -> op ids in insertion order.
  std::map<std::pair<int, int>, std::deque<int>> queues;
  std::vector<int> unmet_deps(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> dependents(static_cast<std::size_t>(n));
  for (const Op& op : graph.ops()) {
    unmet_deps[static_cast<std::size_t>(op.id)] =
        static_cast<int>(op.deps.size());
    for (int dep : op.deps) {
      dependents[static_cast<std::size_t>(dep)].push_back(op.id);
    }
    for (int device : op.devices) {
      queues[{device, static_cast<int>(op.stream)}].push_back(op.id);
    }
  }

  // Which stream kinds are occupied on each device (by a running op).
  std::vector<std::array<bool, kNumStreamKinds>> occupied(
      static_cast<std::size_t>(num_devices_), {false, false, false});

  std::vector<RunningOp> running;
  SimTime now = kTimeZero;
  int completed = 0;

  auto rate_of = [&](const Op& op) {
    double rate = 1.0;
    for (int device : op.devices) {
      const auto& occ = occupied[static_cast<std::size_t>(device)];
      // Activity of the *other* stream kinds on this device.
      const bool comm =
          op.stream != StreamKind::kComm && occ[int(StreamKind::kComm)];
      const bool comp =
          op.stream != StreamKind::kCompute && occ[int(StreamKind::kCompute)];
      const bool mem =
          op.stream != StreamKind::kMem && occ[int(StreamKind::kMem)];
      rate = std::min(rate, interference_.factor(op.stream, comm, comp, mem));
    }
    return rate;
  };

  auto refresh_rates = [&] {
    for (RunningOp& r : running) {
      r.rate = rate_of(graph.op(r.id));
    }
  };

  auto op_startable = [&](int id) {
    if (unmet_deps[static_cast<std::size_t>(id)] > 0) return false;
    if (result.op_times[static_cast<std::size_t>(id)].started()) return false;
    const Op& op = graph.op(id);
    for (int device : op.devices) {
      const auto& q = queues.at({device, static_cast<int>(op.stream)});
      if (q.empty() || q.front() != id) return false;
      if (occupied[static_cast<std::size_t>(device)][int(op.stream)]) {
        return false;
      }
    }
    return true;
  };

  auto start_ready_ops = [&] {
    bool any_started = true;
    while (any_started) {
      any_started = false;
      // Scan stream heads in deterministic (device, kind) order.
      for (auto& [key, q] : queues) {
        if (q.empty()) continue;
        const int id = q.front();
        if (!op_startable(id)) continue;
        const Op& op = graph.op(id);
        for (int device : op.devices) {
          occupied[static_cast<std::size_t>(device)][int(op.stream)] = true;
        }
        result.op_times[static_cast<std::size_t>(id)].start = now;
        running.push_back(RunningOp{id, op.base_seconds, 1.0});
        any_started = true;
      }
    }
    refresh_rates();
  };

  start_ready_ops();

  while (completed < n) {
    MPIPE_CHECK(!running.empty(),
                "timing deadlock: no runnable op (cyclic stream order?)");
    // Next completion under current (constant) rates; ties by op id.
    SimTime best_finish = std::numeric_limits<double>::infinity();
    int best_index = -1;
    for (std::size_t i = 0; i < running.size(); ++i) {
      const SimTime finish = now + running[i].remaining / running[i].rate;
      if (finish < best_finish ||
          (finish == best_finish && best_index >= 0 &&
           running[i].id < running[static_cast<std::size_t>(best_index)].id)) {
        best_finish = finish;
        best_index = static_cast<int>(i);
      }
    }
    const double dt = best_finish - now;

    // Integrate progress and account busy time for the elapsed interval.
    for (RunningOp& r : running) {
      r.remaining = std::max(0.0, r.remaining - dt * r.rate);
      const Op& op = graph.op(r.id);
      for (int device : op.devices) {
        result.busy[static_cast<std::size_t>(device)][int(op.stream)] += dt;
        if (op.stream == StreamKind::kCompute) {
          result.weighted_compute[static_cast<std::size_t>(device)] +=
              dt * op.compute_efficiency * r.rate;
        }
      }
    }
    now = best_finish;

    // Retire the finished op.
    const int done_id = running[static_cast<std::size_t>(best_index)].id;
    running.erase(running.begin() + best_index);
    const Op& done = graph.op(done_id);
    result.op_times[static_cast<std::size_t>(done_id)].end = now;
    for (int device : done.devices) {
      occupied[static_cast<std::size_t>(device)][int(done.stream)] = false;
      auto& q = queues.at({device, static_cast<int>(done.stream)});
      MPIPE_CHECK(!q.empty() && q.front() == done_id,
                  "stream FIFO corrupted");
      q.pop_front();
    }
    for (int dependent : dependents[static_cast<std::size_t>(done_id)]) {
      --unmet_deps[static_cast<std::size_t>(dependent)];
    }
    ++completed;

    start_ready_ops();
  }

  result.makespan = now;
  return result;
}

}  // namespace mpipe::sim
