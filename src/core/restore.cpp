#include "core/restore.h"

#include <algorithm>

#include "common/check.h"

namespace mpipe::core {

namespace {

/// Appends `seg`, or widens the previous segment when `seg` continues it
/// (same endpoints, both row ranges contiguous). Tokens that stayed in
/// send order — common under coarse routing — then travel as one block
/// copy instead of per-row segments.
void push_or_merge(std::vector<comm::RowSegment>& segments,
                   const comm::RowSegment& seg) {
  if (!segments.empty()) {
    comm::RowSegment& prev = segments.back();
    if (prev.src_device == seg.src_device && prev.src == seg.src &&
        prev.dst_device == seg.dst_device && prev.dst == seg.dst &&
        prev.src_row + prev.rows == seg.src_row &&
        prev.dst_row + prev.rows == seg.dst_row) {
      prev.rows += seg.rows;
      return;
    }
  }
  segments.push_back(seg);
}

Tensor& pick(MoeStepContext& ctx, std::optional<mem::BufferPool>& pool,
             std::vector<mem::TrackedTensor>& parts, int p) {
  if (ctx.reuse()) {
    MPIPE_EXPECTS(pool.has_value(), "ring pool missing");
    return pool->slot(p);
  }
  MPIPE_EXPECTS(p >= 0 && p < static_cast<int>(parts.size()),
                "partition stash missing");
  return parts[static_cast<std::size_t>(p)].tensor;
}
}  // namespace

void declare_expert_param_reads(sim::Op& op,
                                std::vector<moe::ExpertFFN>& experts,
                                bool ffn1, bool ffn2) {
  for (auto& expert : experts) {
    const auto params = expert.parameters();  // order: w1, b1, w2, b2
    if (ffn1) {
      op.reads.push_back(sim::access_whole(*params[0]));
      op.reads.push_back(sim::access_whole(*params[1]));
    }
    if (ffn2) {
      op.reads.push_back(sim::access_whole(*params[2]));
      op.reads.push_back(sim::access_whole(*params[3]));
    }
  }
}

void declare_expert_grad_accum(sim::Op& op,
                               std::vector<moe::ExpertFFN>& experts) {
  for (auto& expert : experts) {
    for (Tensor* g : expert.gradients()) {
      op.reads.push_back(sim::access_whole(*g));
      op.writes.push_back(sim::access_whole(*g));
    }
  }
}

Tensor& tdi_buffer(MoeStepContext& ctx, int device, int p) {
  auto& st = ctx.dev[static_cast<std::size_t>(device)];
  return pick(ctx, st.tdi, st.tdi_parts, p);
}
Tensor& tm_buffer(MoeStepContext& ctx, int device, int p) {
  auto& st = ctx.dev[static_cast<std::size_t>(device)];
  return pick(ctx, st.tm, st.tm_parts, p);
}
Tensor& tdo_buffer(MoeStepContext& ctx, int device, int p) {
  auto& st = ctx.dev[static_cast<std::size_t>(device)];
  return pick(ctx, st.tdo, st.tdo_parts, p);
}
Tensor& d_ys_buffer(MoeStepContext& ctx, int device, int p) {
  auto& st = ctx.dev[static_cast<std::size_t>(device)];
  return pick(ctx, st.d_ys, st.d_ys_parts, p);
}
Tensor& d_tdo_buffer(MoeStepContext& ctx, int device, int p) {
  auto& st = ctx.dev[static_cast<std::size_t>(device)];
  return pick(ctx, st.d_tdo, st.d_tdo_parts, p);
}
Tensor& d_tdi_buffer(MoeStepContext& ctx, int device, int p) {
  auto& st = ctx.dev[static_cast<std::size_t>(device)];
  return pick(ctx, st.d_tdi, st.d_tdi_parts, p);
}

std::vector<comm::RowSegment> dispatch_segments(MoeStepContext& ctx, int p) {
  MPIPE_EXPECTS(ctx.functional(), "segments need materialized buffers");
  const auto& part = ctx.plan.part(p);
  std::vector<comm::RowSegment> segments;
  for (int d = 0; d < ctx.num_devices(); ++d) {
    const auto& routing = part.src[static_cast<std::size_t>(d)];
    auto& st = ctx.dev[static_cast<std::size_t>(d)];
    // Track how far into each destination block we have written.
    std::vector<std::int64_t> written(
        static_cast<std::size_t>(ctx.num_devices()), 0);
    for (std::size_t i = 0; i < routing.order.size(); ++i) {
      const std::int64_t t = routing.order[i];
      const std::int64_t e =
          st.gating.expert_of[static_cast<std::size_t>(t)];
      const int dst = static_cast<int>(e / ctx.plan.experts_per_device);
      comm::RowSegment seg;
      seg.src_device = d;
      seg.src = &st.x;
      seg.src_row = t;
      seg.dst_device = dst;
      seg.dst = &tdi_buffer(ctx, dst, p);
      seg.dst_row = part.recv_offset[static_cast<std::size_t>(dst)]
                                    [static_cast<std::size_t>(d)] +
                    written[static_cast<std::size_t>(dst)];
      seg.rows = 1;
      ++written[static_cast<std::size_t>(dst)];
      push_or_merge(segments, seg);
    }
  }
  return segments;
}

std::vector<comm::RowSegment> grad_dispatch_segments(MoeStepContext& ctx,
                                                     int p) {
  MPIPE_EXPECTS(ctx.functional(), "segments need materialized buffers");
  const auto& part = ctx.plan.part(p);
  std::vector<comm::RowSegment> segments;
  for (int d = 0; d < ctx.num_devices(); ++d) {
    const auto& routing = part.src[static_cast<std::size_t>(d)];
    for (int dst = 0; dst < ctx.num_devices(); ++dst) {
      const std::int64_t count =
          routing.send_counts[static_cast<std::size_t>(dst)];
      if (count == 0) continue;
      comm::RowSegment seg;
      seg.src_device = d;
      seg.src = &d_ys_buffer(ctx, d, p);
      seg.src_row = routing.send_offsets[static_cast<std::size_t>(dst)];
      seg.dst_device = dst;
      seg.dst = &d_tdo_buffer(ctx, dst, p);
      seg.dst_row = part.recv_offset[static_cast<std::size_t>(dst)]
                                    [static_cast<std::size_t>(d)];
      seg.rows = count;
      segments.push_back(seg);
    }
  }
  return segments;
}

std::vector<comm::RowSegment> combine_segments(MoeStepContext& ctx, int p,
                                               bool backward) {
  MPIPE_EXPECTS(ctx.functional(), "segments need materialized buffers");
  const auto& part = ctx.plan.part(p);
  std::vector<comm::RowSegment> segments;
  for (int d = 0; d < ctx.num_devices(); ++d) {
    const auto& routing = part.src[static_cast<std::size_t>(d)];
    auto& st = ctx.dev[static_cast<std::size_t>(d)];
    std::vector<std::int64_t> read(
        static_cast<std::size_t>(ctx.num_devices()), 0);
    for (std::size_t i = 0; i < routing.order.size(); ++i) {
      const std::int64_t t = routing.order[i];
      const std::int64_t e =
          st.gating.expert_of[static_cast<std::size_t>(t)];
      const int holder = static_cast<int>(e / ctx.plan.experts_per_device);
      comm::RowSegment seg;
      seg.src_device = holder;
      seg.src = backward ? &d_tdi_buffer(ctx, holder, p)
                         : &tdo_buffer(ctx, holder, p);
      seg.src_row = part.recv_offset[static_cast<std::size_t>(holder)]
                                    [static_cast<std::size_t>(d)] +
                    read[static_cast<std::size_t>(holder)];
      seg.dst_device = d;
      seg.dst = backward ? &st.dx : &st.out;
      seg.dst_row = t;
      seg.rows = 1;
      ++read[static_cast<std::size_t>(holder)];
      push_or_merge(segments, seg);
    }
  }
  return segments;
}

std::uint64_t dispatch_payload_bytes(const MoeStepContext& ctx, int p) {
  const auto& part = ctx.plan.part(p);
  std::uint64_t mx = 0;
  for (int d = 0; d < ctx.num_devices(); ++d) {
    const auto& routing = part.src[static_cast<std::size_t>(d)];
    std::uint64_t sent = 0;
    for (int j = 0; j < ctx.num_devices(); ++j) {
      if (j == d) continue;
      sent += quantized_bytes(
          routing.send_counts[static_cast<std::size_t>(j)], ctx.d_model,
          ctx.dtype);
    }
    mx = std::max(mx, sent);
  }
  return mx;
}

std::string staging_key(const char* what, int p) {
  return std::string(what) + ":p" + std::to_string(p);
}

void offload_rows(mem::HostStaging& staging, int device,
                  const std::string& key, const Tensor& buf,
                  std::int64_t rows, DType dtype) {
  // Strict store (no allow_overwrite): every key here is per-partition
  // ("tdi:pN" / "tm:pN") and consumed exactly once by prefetch_rows, and
  // MoELayer::forward() clears the staging store at step entry — so even a
  // step replayed after a mid-forward fault starts from an empty store. A
  // collision therefore means two ring slots mapped to one key, which must
  // fail loudly rather than mask a double-stash.
  staging.store(device, key, buf.slice_rows(0, rows),
                /*allow_overwrite=*/false, dtype);
}

void prefetch_rows(mem::HostStaging& staging, int device,
                   const std::string& key, Tensor& buf) {
  Tensor staged = staging.load(device, key);
  buf.copy_into_rows(0, staged);
  staging.drop(device, key);
}

void scale_by_gate(DeviceStepState& st, std::int64_t begin,
                   std::int64_t rows) {
  Tensor& out = st.out;
  MPIPE_EXPECTS(out.shape().rank() == 2, "gate scaling expects a matrix");
  MPIPE_EXPECTS(begin >= 0 && rows >= 0 && begin + rows <= out.dim(0) &&
                    begin + rows <=
                        static_cast<std::int64_t>(st.gating.gate.size()),
                "gate scaling rows out of range");
  const std::int64_t cols = out.dim(1);
  for (std::int64_t t = begin; t < begin + rows; ++t) {
    const float gate = st.gating.gate[static_cast<std::size_t>(t)];
    float* MPIPE_RESTRICT row = out.data() + t * cols;
    for (std::int64_t col = 0; col < cols; ++col) row[col] *= gate;
  }
}

void scale_by_gate_backward(DeviceStepState& st,
                            const std::vector<std::int64_t>& order,
                            Tensor& ys) {
  const Tensor& out = st.out;
  const Tensor& dy = st.dy;
  MPIPE_EXPECTS(out.shape().rank() == 2 && dy.shape() == out.shape(),
                "gate scaling backward: dy and out shapes differ");
  const std::int64_t cols = out.dim(1);
  const auto n = static_cast<std::int64_t>(order.size());
  MPIPE_EXPECTS(ys.shape().rank() == 2 && ys.dim(0) >= n &&
                    ys.dim(1) == cols,
                "gate scaling backward: ys too small");
  if (n == 0) return;
  const auto [lo, hi] = std::minmax_element(order.begin(), order.end());
  MPIPE_EXPECTS(*lo >= 0 && *hi < out.dim(0) &&
                    *hi < static_cast<std::int64_t>(st.gating.gate.size()) &&
                    *hi < static_cast<std::int64_t>(st.dgate.size()),
                "gate scaling backward: token out of range");
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t t = order[static_cast<std::size_t>(i)];
    const float gate = st.gating.gate[static_cast<std::size_t>(t)];
    const float* MPIPE_RESTRICT dyr = dy.data() + t * cols;
    const float* MPIPE_RESTRICT outr = out.data() + t * cols;
    float* MPIPE_RESTRICT ysr = ys.data() + i * cols;
    double dot = 0.0;
    for (std::int64_t col = 0; col < cols; ++col) {
      dot += static_cast<double>(dyr[col]) * outr[col];
    }
    st.dgate[static_cast<std::size_t>(t)] = static_cast<float>(dot / gate);
    for (std::int64_t col = 0; col < cols; ++col) ysr[col] = gate * dyr[col];
  }
}

}  // namespace mpipe::core
