#pragma once
/// \file all_to_all.h
/// Fused AllToAll — the dispatch/combine primitive of expert parallelism
/// (paper Fig 1). MPipeMoE's split-by-B pipelining issues one of these per
/// micro-batch (Fig 5b); the FasterMoE baseline instead fragments the
/// exchange into per-destination P2P chains (comm/p2p.h).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "comm/process_group.h"
#include "sim/op_graph.h"
#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace mpipe {
class FaultInjector;
}

namespace mpipe::comm {

/// One contiguous block of rows moving between two device-resident
/// matrices. Tensors must outlive the graph execution.
struct RowSegment {
  int src_device = 0;
  const Tensor* src = nullptr;
  std::int64_t src_row = 0;
  int dst_device = 0;
  Tensor* dst = nullptr;
  std::int64_t dst_row = 0;
  std::int64_t rows = 0;
};

/// Executes all segments functionally. kF32 copies byte-exactly; a
/// reduced `payload_dtype` additionally rounds the copied destination
/// rows through the wire format (bf16 round-to-nearest-even, int8 with a
/// per-row absmax scale) — the buffers stay fp32, the values carry
/// exactly the precision a real bf16/int8 link would deliver. Non-finite
/// payloads survive the rounding, so corruption stays detectable.
void apply_segments(const std::vector<RowSegment>& segments,
                    DType payload_dtype = DType::kF32);

/// apply_segments under the cluster's fault-injection schedule: optional
/// straggler delay, injected TransientErrors with bounded deterministic
/// retry (faults fire *before* any byte moves, so retries are idempotent),
/// and optional post-copy NaN corruption of one destination float. When
/// the injector's scan_payloads is set, destination rows are additionally
/// scanned for non-finite floats after the copy (and after the corruption
/// hook): a hit counts a detection and throws TransientError for the
/// step-replay ladder — the pre-activation net that catches corruption a
/// downstream ReLU would silently flush. A null injector is exactly
/// apply_segments. `key` is the op's build-time fault key
/// (FaultInjector::reserve_key); `label` is the op's graph label, matched
/// against the injector's corrupt_label_filter.
void apply_segments_guarded(const std::vector<RowSegment>& segments,
                            const FaultInjector* injector, std::uint64_t key,
                            std::string_view label,
                            DType payload_dtype = DType::kF32);

/// Appends the hazard declarations a segment table implies to `op`: each
/// segment reads its source rows and writes its destination rows. Zero-row
/// segments are skipped. Used by every segment-driven comm op so the
/// declarations can never drift from what apply_segments actually copies.
void declare_segment_accesses(sim::Op& op,
                              const std::vector<RowSegment>& segments);

/// Bytes the busiest participant sends (drives the collective's duration),
/// counted in the wire format: dtype-width elements, plus one fp32 scale
/// per row for int8. Self-device segments are local copies and count as
/// free.
std::uint64_t max_bytes_sent(const std::vector<RowSegment>& segments,
                             DType payload_dtype = DType::kF32);

/// Modelled duration of a fused AllToAll where the busiest participant
/// sends `payload_bytes` to its peers (its local share already excluded —
/// the inverse of alltoall_seconds' (P-1)/P payload factor), counted in
/// its wire format. Degenerate groups (size <= 1) pay only the collective
/// launch latency.
double alltoall_duration(const ProcessGroup& group,
                         std::uint64_t payload_bytes);

/// Appends one fused AllToAll op over the group's comm streams. Returns the
/// op id. Row counts may be ragged across pairs (AllToAll-v semantics).
int alltoall(sim::OpGraph& graph, const ProcessGroup& group,
             std::vector<RowSegment> segments, std::string label,
             std::vector<int> deps, DType payload_dtype = DType::kF32);

/// Timing-only AllToAll: `payload_bytes` is what the busiest participant
/// sends to peers (excluding its local share), counted in the wire format;
/// no functional closure.
int alltoall_timed(sim::OpGraph& graph, const ProcessGroup& group,
                   std::uint64_t payload_bytes, std::string label,
                   std::vector<int> deps);

}  // namespace mpipe::comm
