#include "comm/p2p.h"

#include "common/check.h"
#include "common/fault_injection.h"

namespace mpipe::comm {

namespace {

/// A P2P op of `bytes` from `src` to `dst` on the comm stream. A local copy
/// is charged one launch (it still occupies a kernel slot in NCCL-style
/// pipelines). A remote send occupies only the destination: NCCL posts
/// sends asynchronously and arrivals serialise at the receiver's comm
/// stream, which also avoids artificial convoy locking across unrelated
/// pairs.
sim::Op p2p_op(const ProcessGroup& group, int src, int dst,
               std::uint64_t bytes, std::string label,
               std::vector<int> deps) {
  const auto& cost = group.cluster().cost_model();
  sim::Op op;
  op.label = std::move(label);
  op.category = sim::OpCategory::kP2P;
  op.stream = sim::StreamKind::kComm;
  op.devices = {dst};
  op.base_seconds = src == dst ? cost.config().comm_launch_latency
                               : cost.p2p_seconds(bytes, src, dst);
  op.deps = std::move(deps);
  return op;
}

}  // namespace

int send_recv_multi(sim::OpGraph& graph, const ProcessGroup& group,
                    std::vector<RowSegment> segments, std::string label,
                    std::vector<int> deps) {
  MPIPE_EXPECTS(!segments.empty(), "p2p with no segments");
  const int src = segments[0].src_device;
  const int dst = segments[0].dst_device;
  std::uint64_t bytes = 0;
  for (const RowSegment& seg : segments) {
    MPIPE_EXPECTS(seg.src_device == src && seg.dst_device == dst,
                  "send_recv_multi segments must share endpoints");
    bytes += static_cast<std::uint64_t>(seg.rows) *
             static_cast<std::uint64_t>(seg.src->dim(1)) * sizeof(float);
  }
  sim::Op op = p2p_op(group, src, dst, bytes, std::move(label),
                      std::move(deps));
  auto moved = std::make_shared<std::vector<RowSegment>>(std::move(segments));
  auto injector = group.cluster().fault_injector_shared();
  const std::uint64_t key = injector ? injector->reserve_key() : 0;
  op.fn = [moved, injector, key, lbl = op.label] {
    apply_segments_guarded(*moved, injector.get(), key, lbl);
  };
  declare_segment_accesses(op, *moved);
  return graph.add(std::move(op));
}

int send_recv_timed(sim::OpGraph& graph, const ProcessGroup& group,
                    int src_device, int dst_device, std::uint64_t bytes,
                    std::string label, std::vector<int> deps) {
  return graph.add(p2p_op(group, src_device, dst_device, bytes,
                          std::move(label), std::move(deps)));
}

}  // namespace mpipe::comm
