#include "comm/collectives.h"

#include <cstring>
#include <map>
#include <memory>

#include "common/check.h"
#include "common/fault_injection.h"

namespace mpipe::comm {

int allreduce_sum(sim::OpGraph& graph, const ProcessGroup& group,
                  std::vector<Tensor*> per_rank, std::string label,
                  std::vector<int> deps) {
  MPIPE_EXPECTS(static_cast<int>(per_rank.size()) == group.size(),
                "allreduce needs one tensor per rank");
  for (Tensor* t : per_rank) {
    MPIPE_EXPECTS(t != nullptr && t->defined(), "allreduce on null tensor");
    MPIPE_EXPECTS(t->shape() == per_rank[0]->shape(),
                  "allreduce shape mismatch");
  }
  const std::uint64_t bytes = per_rank[0]->nbytes();
  const double seconds =
      group.size() > 1
          ? group.cluster().cost_model().allreduce_seconds(bytes,
                                                           group.devices())
          : 0.0;
  auto tensors = std::make_shared<std::vector<Tensor*>>(std::move(per_rank));
  auto injector = group.cluster().fault_injector_shared();
  const std::uint64_t key = injector ? injector->reserve_key() : 0;
  sim::Op op;
  op.label = std::move(label);
  op.category = sim::OpCategory::kAllReduce;
  op.stream = sim::StreamKind::kComm;
  op.devices = group.devices();
  op.base_seconds = seconds;
  op.deps = std::move(deps);
  // NOTE: injected faults fire before the body runs (run_comm_guarded), so
  // the in-place accumulate below is never retried after a partial sum.
  op.fn = [tensors, injector, key] {
    run_comm_guarded(injector.get(), key, [&] {
      Tensor& acc = *(*tensors)[0];
      const std::int64_t n = acc.numel();
      float* pacc = acc.data();
      for (std::size_t r = 1; r < tensors->size(); ++r) {
        const float* p = (*tensors)[r]->data();
        for (std::int64_t i = 0; i < n; ++i) pacc[i] += p[i];
      }
      for (std::size_t r = 1; r < tensors->size(); ++r) {
        std::memcpy((*tensors)[r]->data(), pacc,
                    static_cast<std::size_t>(n) * sizeof(float));
      }
    });
  };
  for (const Tensor* t : *tensors) {
    op.reads.push_back(sim::access_whole(*t));
    op.writes.push_back(sim::access_whole(*t));
  }
  return graph.add(std::move(op));
}

std::vector<int> hierarchical_alltoall_timed(sim::OpGraph& graph,
                                             const ProcessGroup& group,
                                             std::uint64_t payload_bytes,
                                             std::string label,
                                             std::vector<int> deps) {
  const auto& topo = group.cluster().topology();
  const auto& cost = group.cluster().cost_model();
  MPIPE_EXPECTS(group.size() >= 2, "hierarchical alltoall needs >= 2 ranks");

  // Partition the group's devices by node.
  std::map<int, std::vector<int>> by_node;
  for (int device : group.devices()) {
    by_node[topo.node_of(device)].push_back(device);
  }
  const double nodes = static_cast<double>(by_node.size());

  // Phase 1: intra-node regroup — each device reshuffles its payload so
  // that data for every remote node is contiguous on one "gateway" lane.
  const double p1_bytes =
      static_cast<double>(payload_bytes) *
      (static_cast<double>(by_node.begin()->second.size()) - 1.0) /
      std::max(1.0, static_cast<double>(by_node.begin()->second.size()));
  const double p1_seconds =
      cost.config().comm_launch_latency +
      p1_bytes / topo.config().intra_node_bw;
  const int p1 = graph.add(label + ":intra1", sim::OpCategory::kAllToAll,
                           sim::StreamKind::kComm, group.devices(),
                           by_node.size() > 1 ? p1_seconds
                                              : p1_seconds,
                           std::move(deps), nullptr);

  // Phase 2: inter-node exchange between node counterparts. Each device
  // ships the aggregated share destined for other nodes.
  const double p2_bytes = nodes > 1.0
                              ? static_cast<double>(payload_bytes) *
                                    (nodes - 1.0) / nodes
                              : 0.0;
  const double p2_seconds =
      cost.config().comm_launch_latency +
      p2_bytes / topo.config().inter_node_bw;
  const int p2 = graph.add(label + ":inter", sim::OpCategory::kAllToAll,
                           sim::StreamKind::kComm, group.devices(),
                           p2_seconds, {p1}, nullptr);

  // Phase 3: intra-node scatter to the final destinations.
  const int p3 = graph.add(label + ":intra2", sim::OpCategory::kAllToAll,
                           sim::StreamKind::kComm, group.devices(),
                           p1_seconds, {p2}, nullptr);
  return {p1, p2, p3};
}

}  // namespace mpipe::comm
