#pragma once
/// \file cluster.h
/// The simulated cluster: topology + interference + cost model.
/// `run()` executes an OpGraph functionally (real math, deterministic topo
/// order) and temporally (timing engine), returning the timing result.

#include <memory>
#include <vector>

#include "common/fault_injection.h"
#include "sim/cost_model.h"
#include "sim/graph_executor.h"
#include "sim/interference.h"
#include "sim/op_graph.h"
#include "sim/timing_engine.h"
#include "sim/topology.h"

namespace mpipe::sim {

struct ClusterConfig {
  TopologyConfig topology;
  CostModelConfig cost;
  InterferenceModel interference = InterferenceModel::dgx_a100();
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  /// Paper testbed: 8 nodes × 8 GPUs.
  static Cluster dgx_a100_pod(int nodes = 8, int gpus_per_node = 8);

  int num_devices() const { return topology_.num_devices(); }
  std::vector<int> all_device_ids() const;

  const Topology& topology() const { return topology_; }
  const CostModel& cost_model() const { return cost_model_; }
  const InterferenceModel& interference() const { return interference_; }

  /// Replaces the cost-model configuration (same topology). Entry points
  /// use this to install measured calibration curves after construction.
  void set_cost_config(CostModelConfig config);

  /// Installs a cluster-scoped fault injector (common/fault_injection.h).
  /// Comm ops built after this consult it for injected failures, retries,
  /// stragglers, and payload corruption; allocators wired via
  /// fault_injector_shared() consult it for OOM injection. Ops capture the
  /// injector by shared_ptr, so graphs built against one configuration
  /// stay valid when a later call installs another.
  void set_fault_injection(FaultInjectionConfig config);

  /// Null when no injection is configured (the default — and then every
  /// fault hook reduces to one null check).
  const FaultInjector* fault_injector() const {
    return fault_injector_.get();
  }
  std::shared_ptr<const FaultInjector> fault_injector_shared() const {
    return fault_injector_;
  }

  /// Functional + timed execution. Under ExecutionPolicy::kParallel the
  /// closures run concurrently on the shared ThreadPool after the hazard
  /// validator proves every unordered op pair disjoint; kSerial is the
  /// deterministic topological reference order. Both produce bitwise
  /// identical tensor results. A non-null `profile` makes the functional
  /// run record per-op wall-clock timestamps (sim/profile.h) so the
  /// returned simulated schedule can be confronted with measured reality;
  /// null (the default) records nothing and costs nothing.
  TimingResult run(const OpGraph& graph,
                   ExecutionPolicy policy = ExecutionPolicy::kSerial,
                   ExecutionProfile* profile = nullptr);

  /// Timed execution only (closures not invoked) — used by the adaptive
  /// granularity search to probe candidate schedules cheaply.
  TimingResult time_only(const OpGraph& graph);

  /// Functional execution only (no timing) — used in numerics tests.
  void run_functional(const OpGraph& graph,
                      ExecutionPolicy policy = ExecutionPolicy::kSerial,
                      ExecutionProfile* profile = nullptr);

 private:
  Topology topology_;
  CostModel cost_model_;
  InterferenceModel interference_;
  std::shared_ptr<const FaultInjector> fault_injector_;
};

}  // namespace mpipe::sim
