#pragma once
/// \file profile.h
/// The measured half of the measured-vs-modeled loop. The executors
/// (sim/graph_executor.h) can record per-op wall-clock start/end timestamps
/// and the executing worker while a graph runs; this file turns those raw
/// samples into a measured timeline (per-op durations, critical path,
/// measured makespan, per-stream occupancy), diffs it op-by-op against the
/// TimingEngine's simulated schedule, and fits per-op-class correction
/// factors (compute / comm / memcpy) that the adaptive selectors consume to
/// re-rank strategies with reality-corrected costs. Fitted online from
/// profiled steps (core::CorrectionWarmup), this is the only place the
/// machine that runs a step enters the analytic cost model.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/op_graph.h"
#include "sim/timing_engine.h"

namespace mpipe::sim {

/// One op's wall-clock execution record: start/end in nanoseconds relative
/// to the run's origin stamp, and the id of the drain loop (0 = the calling
/// thread, 1..k = pool helpers) that executed it.
struct OpSample {
  std::int64_t start_ns = -1;
  std::int64_t end_ns = -1;
  int worker = -1;

  bool recorded() const { return start_ns >= 0; }
};

/// Wall-clock record of one graph execution, filled by the executors when a
/// profile sink is passed. One slot per op id: each op executes exactly
/// once, so recording is a plain store into the op's own pre-sized slot —
/// no locks, no shared counters, no allocation on the execution path, and
/// no false sharing beyond adjacent ops (the stores are tens of
/// nanoseconds next to GEMM/collective op bodies). A null sink costs one
/// pointer test per op — the zero-overhead-when-off contract.
class ExecutionProfile {
 public:
  /// Clears previous samples, sizes one slot per op and stamps the origin.
  /// Called by the executor at run start.
  void begin(int num_ops);

  /// Records op `id` as executed by `worker` over [start_ns, end_ns)
  /// (steady-clock nanoseconds; begin()'s origin is subtracted here).
  void record(int id, int worker, std::int64_t start_ns, std::int64_t end_ns);

  bool empty() const { return samples_.empty(); }
  int size() const { return static_cast<int>(samples_.size()); }
  const OpSample& sample(int id) const;
  const std::vector<OpSample>& samples() const { return samples_; }

  /// Steady-clock nanosecond timestamp (the executor's time source).
  static std::int64_t now_ns();

 private:
  std::vector<OpSample> samples_;
  std::int64_t origin_ns_ = 0;
};

/// One op of the reconstructed measured timeline, in seconds relative to
/// the earliest recorded start of the run.
struct MeasuredOp {
  int id = -1;
  double start = 0.0;
  double end = 0.0;
  int worker = -1;

  double seconds() const { return end - start; }
};

/// The measured analogue of TimingResult: what actually happened on the
/// wall clock, reconstructed from an ExecutionProfile.
struct MeasuredTimeline {
  /// Latest recorded end minus earliest recorded start.
  double makespan = 0.0;
  /// Indexed by op id; ops the run never recorded keep id == -1 (e.g. a
  /// cancelled tail after an exception).
  std::vector<MeasuredOp> ops;
  /// Dependency-respecting op chain (explicit deps + stream FIFO edges)
  /// with the largest measured duration sum, in execution order.
  std::vector<int> critical_path;
  double critical_path_seconds = 0.0;
  /// Measured busy seconds per device per stream kind (an op on k devices
  /// contributes its duration to each of them, like TimingResult::busy).
  std::vector<std::array<double, kNumStreamKinds>> stream_busy;

  double busy(int device, StreamKind kind) const {
    return stream_busy[static_cast<std::size_t>(device)]
                      [static_cast<int>(kind)];
  }
  /// Fraction of the measured makespan the stream was executing ops.
  double stream_occupancy(int device, StreamKind kind) const {
    return makespan > 0.0 ? busy(device, kind) / makespan : 0.0;
  }
};

/// Reconstructs the measured timeline from raw samples. Ops never recorded
/// are skipped (their MeasuredOp keeps id == -1); the critical path runs
/// over the recorded subgraph only.
MeasuredTimeline build_timeline(const OpGraph& graph,
                                const ExecutionProfile& profile,
                                int num_devices);

/// The op classes the correction loop distinguishes — the three streams of
/// the paper's performance model plus host bookkeeping (never corrected:
/// gating/dispatch closures are not modelled as device time).
enum class OpClass : std::uint8_t {
  kCompute = 0,
  kComm = 1,
  kMemcpy = 2,
  kHost = 3,
};
inline constexpr int kNumOpClasses = 4;

std::string to_string(OpClass c);
OpClass op_class(OpCategory category);

/// Op-by-op confrontation of the simulated schedule with the measured
/// timeline, plus per-class aggregates — the model-error summary.
struct ScheduleDiff {
  struct OpDiff {
    int id = -1;
    double simulated = 0.0;  ///< seconds the TimingEngine charged
    double measured = 0.0;   ///< seconds the wall clock observed
  };

  double simulated_makespan = 0.0;
  double measured_makespan = 0.0;
  /// One entry per op both schedules have times for, id-ascending.
  std::vector<OpDiff> ops;
  std::array<double, kNumOpClasses> simulated_class_seconds{};
  std::array<double, kNumOpClasses> measured_class_seconds{};

  /// measured / simulated total seconds of the class; 1.0 when the class
  /// never ran (no evidence means no correction).
  double class_ratio(OpClass c) const;
  /// Relative makespan error (measured - simulated) / simulated.
  double makespan_error() const;
  /// One-line human summary ("sim 1.23ms meas 1.40ms (+14%) comp x1.1 …").
  std::string summary() const;
};

ScheduleDiff diff_schedules(const OpGraph& graph, const TimingResult& simulated,
                            const MeasuredTimeline& measured);

/// One op the executor watchdog flagged: its measured wall-clock duration
/// exceeded `threshold` × what the model predicts for it after per-class
/// normalization. Surfaced through StepReport::stragglers.
struct StragglerFlag {
  int id = -1;
  std::string label;
  double simulated = 0.0;  ///< seconds the TimingEngine charged
  double measured = 0.0;   ///< seconds the wall clock observed
  double expected = 0.0;   ///< normalized expectation (see detect_stragglers)
  /// How many times slower than expected the op ran.
  double ratio() const { return expected > 0.0 ? measured / expected : 0.0; }
};

/// The watchdog: flags ops whose measured duration exceeds `threshold` ×
/// their normalized expectation. Simulated seconds model an A100 pod while
/// measured seconds are host wall-clock, so raw comparison is meaningless;
/// each op's expectation is its simulated duration scaled by the *median*
/// measured/simulated ratio of its op class (median, not total, so one
/// straggler cannot inflate its own yardstick). `min_excess_seconds`
/// suppresses flags on ops whose absolute excess is noise-level even when
/// the ratio is large. threshold <= 0 disables detection.
std::vector<StragglerFlag> detect_stragglers(const OpGraph& graph,
                                             const ScheduleDiff& diff,
                                             double threshold,
                                             double min_excess_seconds = 1e-4);

/// Multiplicative per-op-class correction factors: corrected modeled
/// seconds = factor * modeled seconds, with factor fitted as measured /
/// simulated over profiled steps. Identity (all 1.0) leaves every ranking
/// untouched — the no-op contract tests pin down.
struct OpClassCorrections {
  double compute = 1.0;
  double comm = 1.0;
  double memcpy = 1.0;

  bool identity() const {
    return compute == 1.0 && comm == 1.0 && memcpy == 1.0;
  }
  /// Factor for an op category (kHostCompute and anything else: 1.0).
  double factor(OpCategory category) const;
};

/// Accumulates per-class simulated/measured seconds across profiled steps
/// and fits the ratio. Classes with no observed simulated time stay at the
/// identity factor.
class CorrectionFit {
 public:
  void add(const ScheduleDiff& diff);
  OpClassCorrections fit() const;
  int steps() const { return steps_; }

  /// Accumulator snapshot for checkpoint/restore: a rollback in the middle
  /// of the profiling warmup must not double-count replayed steps.
  struct State {
    std::array<double, kNumOpClasses> simulated{};
    std::array<double, kNumOpClasses> measured{};
    int steps = 0;
  };
  State state() const { return {simulated_, measured_, steps_}; }
  void set_state(const State& s) {
    simulated_ = s.simulated;
    measured_ = s.measured;
    steps_ = s.steps;
  }

 private:
  std::array<double, kNumOpClasses> simulated_{};
  std::array<double, kNumOpClasses> measured_{};
  int steps_ = 0;
};

/// Scales every op's base_seconds by its class factor — how a probe or
/// selector graph becomes reality-corrected before TimingEngine::run.
void apply_corrections(OpGraph& graph, const OpClassCorrections& corrections);

// The measured-vs-simulated chrome-trace emitter lives with the other
// trace exporters: sim/trace.h (to_chrome_trace overload taking a
// MeasuredTimeline alongside the TimingResult).

}  // namespace mpipe::sim
