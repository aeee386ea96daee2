#include "sim/cluster.h"

#include "common/thread_pool.h"

namespace mpipe::sim {

Cluster::Cluster(ClusterConfig config)
    : topology_(config.topology),
      cost_model_(config.cost, Topology(config.topology)),
      interference_(config.interference) {}

Cluster Cluster::dgx_a100_pod(int nodes, int gpus_per_node) {
  ClusterConfig cfg;
  cfg.topology.num_devices = nodes * gpus_per_node;
  cfg.topology.devices_per_node = gpus_per_node;
  return Cluster(cfg);
}

std::vector<int> Cluster::all_device_ids() const {
  std::vector<int> ids(static_cast<std::size_t>(num_devices()));
  for (int d = 0; d < num_devices(); ++d) {
    ids[static_cast<std::size_t>(d)] = d;
  }
  return ids;
}

void Cluster::set_fault_injection(FaultInjectionConfig config) {
  fault_injector_ = std::make_shared<const FaultInjector>(config);
}

TimingResult Cluster::run(const OpGraph& graph, ExecutionPolicy policy,
                          ExecutionProfile* profile) {
  run_functional(graph, policy, profile);
  return time_only(graph);
}

TimingResult Cluster::time_only(const OpGraph& graph) {
  TimingEngine engine(interference_, num_devices());
  return engine.run(graph);
}

void Cluster::run_functional(const OpGraph& graph, ExecutionPolicy policy,
                             ExecutionProfile* profile) {
  graph.validate(num_devices());
  if (policy == ExecutionPolicy::kParallel && !graph.is_timing_only()) {
    // Prove the schedule safe before overlapping it: every op pair the
    // dependency graph leaves unordered must have declared, disjoint
    // read/write sets.
    validate_hazards(graph);
    run_graph_parallel(graph, ThreadPool::shared(), profile);
    return;
  }
  run_graph_serial(graph, profile);
}

}  // namespace mpipe::sim
