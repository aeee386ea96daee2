#include "comm/all_to_all.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/fault_injection.h"
#include "tensor/quant.h"

namespace mpipe::comm {

void apply_segments(const std::vector<RowSegment>& segments,
                    DType payload_dtype) {
  for (const RowSegment& seg : segments) {
    if (seg.rows == 0) continue;
    MPIPE_CHECK(seg.src != nullptr && seg.dst != nullptr,
                "segment with null tensor");
    MPIPE_CHECK(seg.src->shape().rank() == 2 && seg.dst->shape().rank() == 2,
                "segments move matrix rows");
    const std::int64_t cols = seg.src->dim(1);
    MPIPE_CHECK(seg.dst->dim(1) == cols, "segment column mismatch");
    MPIPE_CHECK(seg.src_row >= 0 && seg.src_row + seg.rows <= seg.src->dim(0),
                "segment source rows out of bounds");
    MPIPE_CHECK(seg.dst_row >= 0 && seg.dst_row + seg.rows <= seg.dst->dim(0),
                "segment destination rows out of bounds");
    float* dst = seg.dst->data() + seg.dst_row * cols;
    std::memcpy(dst, seg.src->data() + seg.src_row * cols,
                static_cast<std::size_t>(seg.rows * cols) * sizeof(float));
    // Reduced wire format: the copy delivers what a bf16/int8 link would,
    // by rounding the destination rows in place. kF32 stays byte-exact.
    round_through_dtype(dst, seg.rows, cols, payload_dtype);
  }
}

void apply_segments_guarded(const std::vector<RowSegment>& segments,
                            const FaultInjector* injector, std::uint64_t key,
                            std::string_view label, DType payload_dtype) {
  if (injector == nullptr) {
    apply_segments(segments, payload_dtype);
    return;
  }
  run_comm_guarded(injector, key,
                   [&] { apply_segments(segments, payload_dtype); });
  // Post-copy payload corruption: flip one destination float to NaN, as a
  // flaky link would. Detection is split by where the NaN lands: a combine
  // destination feeds the loss, so the end-of-step numerics guard sees it;
  // a dispatch destination sits below the expert ReLU, which flushes the
  // NaN to zero — only the boundary scan below can catch that one.
  std::int64_t total = 0;
  for (const RowSegment& seg : segments) {
    if (seg.rows > 0) total += seg.rows * seg.dst->dim(1);
  }
  const std::int64_t idx = injector->corrupt_index(key, total, label);
  if (idx >= 0) {
    std::int64_t base = 0;
    for (const RowSegment& seg : segments) {
      if (seg.rows == 0) continue;
      const std::int64_t cols = seg.dst->dim(1);
      const std::int64_t count = seg.rows * cols;
      if (idx < base + count) {
        seg.dst->data()[seg.dst_row * cols + (idx - base)] =
            std::numeric_limits<float>::quiet_NaN();
        break;
      }
      base += count;
    }
  }
  // Pre-activation finiteness scan at the comm boundary. Runs after the
  // corruption hook on purpose: the injected NaN must be visible to the
  // scan, exactly as link-level corruption would be. A hit raises
  // TransientError *outside* run_comm_guarded — re-running this one op
  // would re-read the same corrupt source state, so recovery belongs to
  // the step-replay ladder, which rebuilds the whole forward.
  if (!injector->config().scan_payloads) return;
  for (const RowSegment& seg : segments) {
    if (seg.rows == 0) continue;
    const std::int64_t cols = seg.dst->dim(1);
    const float* dst = seg.dst->data() + seg.dst_row * cols;
    for (std::int64_t i = 0; i < seg.rows * cols; ++i) {
      if (std::isfinite(dst[i])) continue;
      injector->count_detection();
      std::ostringstream os;
      os << "payload scan: non-finite float in destination of '" << label
         << "' (key " << key << ", element " << i
         << ") — silent corruption detected at the comm boundary";
      throw TransientError(os.str());
    }
  }
}

std::uint64_t max_bytes_sent(const std::vector<RowSegment>& segments,
                             DType payload_dtype) {
  std::map<int, std::uint64_t> sent;
  for (const RowSegment& seg : segments) {
    if (seg.src_device == seg.dst_device) continue;  // local copy is free
    sent[seg.src_device] +=
        quantized_bytes(seg.rows, seg.src->dim(1), payload_dtype);
  }
  std::uint64_t mx = 0;
  for (const auto& [device, bytes] : sent) mx = std::max(mx, bytes);
  return mx;
}

double alltoall_duration(const ProcessGroup& group,
                         std::uint64_t payload_bytes) {
  // alltoall_seconds models a symmetric exchange of bytes_per_device with a
  // (P-1)/P factor; the payload already excludes the self share, so
  // compensate.
  if (group.size() <= 1) {
    return group.cluster().cost_model().config().comm_launch_latency;
  }
  const double p = static_cast<double>(group.size());
  const std::uint64_t bytes_per_device = static_cast<std::uint64_t>(
      static_cast<double>(payload_bytes) * p / (p - 1.0));
  return group.cluster().cost_model().alltoall_seconds(bytes_per_device,
                                                      group.devices());
}

void declare_segment_accesses(sim::Op& op,
                              const std::vector<RowSegment>& segments) {
  for (const RowSegment& seg : segments) {
    if (seg.rows == 0) continue;
    MPIPE_EXPECTS(seg.src != nullptr && seg.dst != nullptr,
                  "segment with null tensor");
    op.reads.push_back(sim::access_rows(*seg.src, seg.src_row, seg.rows));
    op.writes.push_back(sim::access_rows(*seg.dst, seg.dst_row, seg.rows));
  }
}

int alltoall(sim::OpGraph& graph, const ProcessGroup& group,
             std::vector<RowSegment> segments, std::string label,
             std::vector<int> deps, DType payload_dtype) {
  const double seconds =
      alltoall_duration(group, max_bytes_sent(segments, payload_dtype));
  auto moved = std::make_shared<std::vector<RowSegment>>(std::move(segments));
  auto injector = group.cluster().fault_injector_shared();
  const std::uint64_t key = injector ? injector->reserve_key() : 0;
  sim::Op op;
  op.label = std::move(label);
  op.category = sim::OpCategory::kAllToAll;
  op.stream = sim::StreamKind::kComm;
  op.devices = group.devices();
  op.base_seconds = seconds;
  op.deps = std::move(deps);
  op.fn = [moved, injector, key, lbl = op.label, payload_dtype] {
    apply_segments_guarded(*moved, injector.get(), key, lbl, payload_dtype);
  };
  declare_segment_accesses(op, *moved);
  // A serving-sized batch can leave a partition with zero rows everywhere:
  // the exchange moves nothing, so keep only the timed launch. With no
  // declared accesses the hazard validator would (rightly) reject the
  // closure as unprovable for concurrent execution.
  if (op.reads.empty() && op.writes.empty()) op.fn = nullptr;
  return graph.add(std::move(op));
}

int alltoall_timed(sim::OpGraph& graph, const ProcessGroup& group,
                   std::uint64_t payload_bytes, std::string label,
                   std::vector<int> deps) {
  const double seconds = alltoall_duration(group, payload_bytes);
  return graph.add(std::move(label), sim::OpCategory::kAllToAll,
                   sim::StreamKind::kComm, group.devices(), seconds,
                   std::move(deps), nullptr);
}

}  // namespace mpipe::comm
