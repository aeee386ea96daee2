#pragma once
/// \file restore.h
/// Shared machinery behind the memory-reusing restore paths (§III-D):
/// buffer accessors that dispatch between ring slots and per-partition
/// stashes, AllToAll segment builders (used both by the forward dispatch
/// and by S2/S4 re-communication), and the offload/prefetch round trip of
/// S1–S3.

#include <string>
#include <vector>

#include "comm/all_to_all.h"
#include "core/execution_context.h"
#include "mem/host_staging.h"
#include "moe/expert.h"

namespace mpipe::core {

// ---- hazard declarations ----------------------------------------------------
// Shared by the pipeline schedule builder and the baselines so the
// ExpertFFN::parameters()/gradients() ordering contract (w1, b1, w2, b2)
// is encoded exactly once — an under-declared access set is a silent
// data-race window the validator cannot see.

/// Declares reads of the parameter tensors an expert stage consumes
/// (w1/b1 for FFN1 and recompute, w2/b2 for FFN2, both for the fused
/// forward and backward stages).
void declare_expert_param_reads(sim::Op& op,
                                std::vector<moe::ExpertFFN>& experts,
                                bool ffn1, bool ffn2);

/// Declares the gradient accumulation (read-modify-write) of a backward
/// expert stage.
void declare_expert_grad_accum(sim::Op& op,
                               std::vector<moe::ExpertFFN>& experts);

// ---- buffer accessors (full mode only) -------------------------------------

Tensor& tdi_buffer(MoeStepContext& ctx, int device, int p);
Tensor& tm_buffer(MoeStepContext& ctx, int device, int p);
Tensor& tdo_buffer(MoeStepContext& ctx, int device, int p);
Tensor& d_ys_buffer(MoeStepContext& ctx, int device, int p);
Tensor& d_tdo_buffer(MoeStepContext& ctx, int device, int p);
Tensor& d_tdi_buffer(MoeStepContext& ctx, int device, int p);

// ---- segment builders -------------------------------------------------------

/// Dispatch (S): token rows of every device's T_I chunk → the destination
/// T_DI buffers, expert-sorted. Per-token segments (T_I is unsorted).
std::vector<comm::RowSegment> dispatch_segments(MoeStepContext& ctx, int p);

/// Backward dispatch (S'): contiguous blocks of the pre-sorted, gate-scaled
/// d_ys buffers → the d_TDO buffers.
std::vector<comm::RowSegment> grad_dispatch_segments(MoeStepContext& ctx,
                                                     int p);

/// Combine (R / R'): T_DO rows back to the original token positions of
/// T_O, or d_TDI rows back into dX when `backward` is true.
std::vector<comm::RowSegment> combine_segments(MoeStepContext& ctx, int p,
                                               bool backward);

/// Max bytes any device ships in partition p's dispatch, counted in
/// ctx.dtype's wire format (dtype-width elements plus int8 row scales) —
/// the timing-only AllToAll payload (also correct for combine, which is
/// symmetric).
std::uint64_t dispatch_payload_bytes(const MoeStepContext& ctx, int p);

// ---- offload round trip -----------------------------------------------------

std::string staging_key(const char* what, int p);

/// D2H: stores the first `rows` rows of `buf` under (device, key), in
/// `dtype`'s wire format (values rounded, bytes accounted quantized).
void offload_rows(mem::HostStaging& staging, int device,
                  const std::string& key, const Tensor& buf,
                  std::int64_t rows, DType dtype = DType::kF32);

/// H2D: restores a staged tensor into the head rows of `buf` and drops the
/// staged copy.
void prefetch_rows(mem::HostStaging& staging, int device,
                   const std::string& key, Tensor& buf);

// ---- gate scaling (full mode only) ------------------------------------------
// The combine's last step and its backward, shared by every schedule
// builder. Each validates its row range once, then walks raw rows.

/// T_O rows [begin, begin + rows) *= their token's gate.
void scale_by_gate(DeviceStepState& st, std::int64_t begin,
                   std::int64_t rows);

/// Backward of scale_by_gate for the tokens in `order`: for t = order[i],
/// st.dgate[t] = <dy[t], out[t]> / gate[t] (a double sum in column order)
/// and row i of `ys` = gate[t] * dy[t].
void scale_by_gate_backward(DeviceStepState& st,
                            const std::vector<std::int64_t>& order,
                            Tensor& ys);

}  // namespace mpipe::core
