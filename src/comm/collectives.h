#pragma once
/// \file collectives.h
/// Group collectives beyond the AllToAll: the AllReduce that synchronises
/// the data-parallel gating network's gradients, and the timing-only
/// hierarchical AllToAll of the hierarchical-AllToAll ablation bench.

#include <string>
#include <vector>

#include "comm/process_group.h"
#include "sim/op_graph.h"
#include "tensor/tensor.h"

namespace mpipe::comm {

/// Sums the per-rank tensors elementwise and writes the result back into
/// every rank's tensor (ring-allreduce timing). Shapes must match.
int allreduce_sum(sim::OpGraph& graph, const ProcessGroup& group,
                  std::vector<Tensor*> per_rank, std::string label,
                  std::vector<int> deps);

/// Hierarchical AllToAll (DeepSpeed-MoE style), timing-only: an intra-node
/// regroup, one aggregated inter-node exchange between node counterparts,
/// and a final intra-node scatter. Trades 3 phases for inter-node message
/// counts that scale with the node count instead of the device count —
/// wins when per-message latency dominates. Returns the ids of the three
/// chained phase ops; the last is the completion op.
std::vector<int> hierarchical_alltoall_timed(sim::OpGraph& graph,
                                             const ProcessGroup& group,
                                             std::uint64_t payload_bytes,
                                             std::string label,
                                             std::vector<int> deps);

}  // namespace mpipe::comm
