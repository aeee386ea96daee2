#pragma once
/// \file timing_engine.h
/// Event-driven schedule simulation. Streams execute their ops in FIFO
/// order; an op starts when its explicit deps are done and it sits at the
/// head of every participating stream. While ops overlap on a device, each
/// runs at a rate scaled by the interference model (piecewise-constant
/// rates, integrated exactly between events).

#include <array>
#include <vector>

#include "sim/interference.h"
#include "sim/op_graph.h"
#include "sim/sim_time.h"

namespace mpipe::sim {

struct OpTiming {
  SimTime start = -1.0;
  SimTime end = -1.0;
  bool started() const { return start >= 0.0; }
  /// Simulated duration (0 for ops that never started) — what the
  /// measured-vs-modeled diff (sim/profile.h) compares per op.
  double seconds() const { return started() ? end - start : 0.0; }
};

struct TimingResult {
  SimTime makespan = 0.0;
  std::vector<OpTiming> op_times;
  /// Busy seconds per device per stream kind.
  std::vector<std::array<double, kNumStreamKinds>> busy;
  /// Efficiency-weighted compute busy seconds per device (for utilisation).
  std::vector<double> weighted_compute;

  double stream_busy(int device, StreamKind kind) const {
    return busy[static_cast<std::size_t>(device)][static_cast<int>(kind)];
  }
  /// Fraction of the makespan the device spent doing useful FLOPs.
  double compute_utilization(int device) const {
    if (makespan <= 0.0) return 0.0;
    return weighted_compute[static_cast<std::size_t>(device)] / makespan;
  }
};

class TimingEngine {
 public:
  TimingEngine(const InterferenceModel& interference, int num_devices);

  /// Simulates the graph; throws on deadlock (validate() failures).
  TimingResult run(const OpGraph& graph);

 private:
  const InterferenceModel& interference_;
  int num_devices_;
};

}  // namespace mpipe::sim
