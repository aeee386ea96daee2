#include "core/schedule_ops.h"

#include <algorithm>

#include "comm/collectives.h"
#include "common/check.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace mpipe::core {

namespace {

using sim::OpCategory;
using sim::StreamKind;

// ---- buffer accessors (functional steps only) -------------------------------

Tensor& pick(std::optional<mem::BufferPool>& pool, int p) {
  MPIPE_EXPECTS(pool.has_value(), "partition buffer missing");
  return pool->slot(p);
}

DeviceStepState& dev(MoeStepContext& ctx, int d) {
  return ctx.dev[static_cast<std::size_t>(d)];
}
Tensor& tdi_buffer(MoeStepContext& ctx, int d, int p) {
  return pick(dev(ctx, d).tdi, p);
}
Tensor& tm_buffer(MoeStepContext& ctx, int d, int p) {
  return pick(dev(ctx, d).tm, p);
}
Tensor& tdo_buffer(MoeStepContext& ctx, int d, int p) {
  return pick(dev(ctx, d).tdo, p);
}
Tensor& d_ys_buffer(MoeStepContext& ctx, int d, int p) {
  return pick(dev(ctx, d).d_ys, p);
}
Tensor& d_tdo_buffer(MoeStepContext& ctx, int d, int p) {
  return pick(dev(ctx, d).d_tdo, p);
}
Tensor& d_tdi_buffer(MoeStepContext& ctx, int d, int p) {
  return pick(dev(ctx, d).d_tdi, p);
}
Tensor& stash_buffer(MoeStepContext& ctx, Stash what, int d, int p) {
  return what == Stash::kTdi ? tdi_buffer(ctx, d, p) : tm_buffer(ctx, d, p);
}

/// Rows device d receives in partition p.
std::int64_t recv_rows(const MoeStepContext& ctx, int p, int d) {
  return ctx.plan.part(p).recv_rows[static_cast<std::size_t>(d)];
}

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

/// Partition p's token moves in send order, merged by push_or_merge:
/// `segment(d, i, t, holder, recv_row)` gives the one-row move of token
/// t = order[i] of device d, whose expert lives on `holder` at receive row
/// `recv_row` of the partition's buffers.
template <class Segment>
std::vector<comm::RowSegment> token_segments(MoeStepContext& ctx, int p,
                                             Segment segment) {
  MPIPE_EXPECTS(ctx.functional(), "segments need materialized buffers");
  const auto& part = ctx.plan.part(p);
  std::vector<comm::RowSegment> segments;
  for (int d = 0; d < ctx.num_devices(); ++d) {
    const auto& routing = part.src[static_cast<std::size_t>(d)];
    const auto& expert_of = dev(ctx, d).gating.expert_of;
    for (std::size_t i = 0; i < routing.order.size(); ++i) {
      const std::int64_t t = routing.order[i];
      const int holder =
          static_cast<int>(expert_of[static_cast<std::size_t>(t)] /
                           ctx.plan.experts_per_device);
      push_or_merge(segments,
                    segment(d, static_cast<std::int64_t>(i), t, holder,
                            routing.recv_row[i]));
    }
  }
  return segments;
}

// ---- expert hazard declarations ---------------------------------------------
// The ExpertFFN::parameters()/gradients() ordering contract (w1, b1, w2, b2)
// is encoded here once — an under-declared access set is a silent
// data-race window the validator cannot see.

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

/// One expert's stage on its receive rows of partition p's slots: the
/// GEMMs read and write row views of the ring slots in place.
void run_expert_stage(ExpertStage stage, moe::ExpertFFN& expert,
                      MoeStepContext& c, int p, int d,
                      const moe::RowSpan& rows) {
  auto view = [&](Tensor& slot) {
    return slot.view_rows(rows.offset, rows.offset + rows.count);
  };
  Tensor tdi = view(tdi_buffer(c, d, p));
  Tensor tm = view(tm_buffer(c, d, p));
  switch (stage) {
    case ExpertStage::kFfn1:
    case ExpertStage::kRecompute:
      expert.forward_mid(tdi, tm);
      return;
    case ExpertStage::kFfn2: {
      Tensor tdo = view(tdo_buffer(c, d, p));
      expert.forward_out(tm, tdo);
      return;
    }
    case ExpertStage::kFused: {
      Tensor tdo = view(tdo_buffer(c, d, p));
      expert.forward_mid(tdi, tm);
      expert.forward_out(tm, tdo);
      return;
    }
    case ExpertStage::kBackward: {
      Tensor d_tdi = view(d_tdi_buffer(c, d, p));
      expert.backward(view(d_tdo_buffer(c, d, p)), tdi, tm, d_tdi);
      return;
    }
  }
}

// ---- gate scaling -----------------------------------------------------------
// Each validates its row range once, then walks raw rows.

/// T_O rows [begin, begin + rows) *= their token's gate.
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

/// Backward of scale_by_gate for the tokens in `order`: for t = order[i],
/// st.dgate[t] = <dy[t], out[t]> / gate[t] (a double sum in column order)
/// and row i of `ys` = gate[t] * dy[t].
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

}  // namespace

// ---- segment builders -------------------------------------------------------

std::vector<comm::RowSegment> dispatch_segments(MoeStepContext& ctx, int p) {
  return token_segments(ctx, p, [&](int d, std::int64_t, std::int64_t t,
                                    int holder, std::int64_t recv_row) {
    return comm::RowSegment{d, &dev(ctx, d).x, t, holder,
                            &tdi_buffer(ctx, holder, p), recv_row, 1};
  });
}

std::vector<comm::RowSegment> grad_dispatch_segments(MoeStepContext& ctx,
                                                     int p) {
  return token_segments(ctx, p, [&](int d, std::int64_t i, std::int64_t,
                                    int holder, std::int64_t recv_row) {
    return comm::RowSegment{d, &d_ys_buffer(ctx, d, p), i, holder,
                            &d_tdo_buffer(ctx, holder, p), recv_row, 1};
  });
}

std::vector<comm::RowSegment> combine_segments(MoeStepContext& ctx, int p,
                                               bool backward) {
  return token_segments(ctx, p, [&](int d, std::int64_t, std::int64_t t,
                                    int holder, std::int64_t recv_row) {
    auto& st = dev(ctx, d);
    return comm::RowSegment{
        holder,
        backward ? &d_tdi_buffer(ctx, holder, p) : &tdo_buffer(ctx, holder, p),
        recv_row, d, backward ? &st.dx : &st.out, t, 1};
  });
}

// ---- emitters ----------------------------------------------------------------

OpEmitter::OpEmitter(sim::OpGraph& graph, MoeStepContext& ctx,
                     const LayerRefs& refs, const comm::ProcessGroup& group,
                     double compute_scale)
    : g_(graph),
      ctx_(ctx),
      refs_(refs),
      group_(group),
      cost_(group.cluster().cost_model()),
      compute_scale_(compute_scale) {}

std::int64_t OpEmitter::num_experts() const {
  return static_cast<std::int64_t>(ctx_.num_devices()) *
         ctx_.plan.experts_per_device;
}

int OpEmitter::router(std::string label, int d) {
  const std::int64_t B = ctx_.plan.tokens_per_device;
  const std::int64_t rows = std::max<std::int64_t>(B, 1);
  return g_.add(
      std::move(label), OpCategory::kGemm, StreamKind::kCompute, {d},
      cost_.gemm_seconds(gemm_flops(B, num_experts(), ctx_.d_model), rows) /
          compute_scale_,
      {}, nullptr, cost_.gemm_efficiency(rows));
}

int OpEmitter::router_backward(std::string label, int d,
                               std::vector<int> deps) {
  const std::int64_t B = ctx_.plan.tokens_per_device;
  const std::int64_t rows = std::max<std::int64_t>(B, 1);
  std::function<void()> fn;
  if (ctx_.functional()) {
    auto* c = &ctx_;
    auto* gates = refs_.gates;
    fn = [c, gates, d] {
      auto& st = dev(*c, d);
      Tensor dxg = (*gates)[static_cast<std::size_t>(d)].backward(
          st.x, st.gating, st.dgate);
      add_(st.dx, dxg);
    };
  }
  const int id = g_.add(
      std::move(label), OpCategory::kGemm, StreamKind::kCompute, {d},
      cost_.gemm_seconds(2 * gemm_flops(B, num_experts(), ctx_.d_model),
                         rows) /
          compute_scale_,
      std::move(deps), std::move(fn), cost_.gemm_efficiency(rows));
  if (ctx_.functional()) {
    auto& st = dev(ctx_, d);
    auto& gate = (*refs_.gates)[static_cast<std::size_t>(d)];
    sim::Op& op = g_.op(id);
    op.reads.push_back(sim::access_whole(st.x));
    op.reads.push_back(sim::access_whole(st.gating.probs));
    op.reads.push_back(sim::access_whole(gate.weight()));
    op.reads.push_back(sim::access_floats(
        st.dgate.data(), 0, static_cast<std::int64_t>(st.dgate.size())));
    op.reads.push_back(sim::access_whole(st.dx));
    op.writes.push_back(sim::access_whole(st.dx));
    op.reads.push_back(sim::access_whole(gate.weight_grad()));
    op.writes.push_back(sim::access_whole(gate.weight_grad()));
  }
  return id;
}

int OpEmitter::gate_grad_sync(std::vector<int> deps) {
  if (ctx_.functional()) {
    std::vector<Tensor*> grads;
    for (int d = 0; d < ctx_.num_devices(); ++d) {
      grads.push_back(&(*refs_.gates)[static_cast<std::size_t>(d)]
                           .weight_grad());
    }
    return comm::allreduce_sum(g_, group_, std::move(grads), "ARg",
                               std::move(deps));
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(ctx_.d_model) * num_experts() * sizeof(float);
  return g_.add("ARg", OpCategory::kAllReduce, StreamKind::kComm,
                group_.devices(),
                group_.size() > 1
                    ? cost_.allreduce_seconds(bytes, group_.devices())
                    : 0.0,
                std::move(deps), nullptr);
}

int OpEmitter::gate_scale(std::string label, int p, int d,
                          std::vector<int> deps) {
  std::function<void()> fn;
  if (ctx_.functional()) {
    auto* c = &ctx_;
    fn = [c, p, d] {
      const auto& part = c->plan.part(p);
      scale_by_gate(dev(*c, d), part.chunk_begin, part.chunk_rows);
    };
  }
  const int id = g_.add(std::move(label), OpCategory::kElementwise,
                        StreamKind::kCompute, {d},
                        cost_.config().compute_launch_latency,
                        std::move(deps), std::move(fn));
  if (ctx_.functional()) {
    auto& st = dev(ctx_, d);
    const auto& part = ctx_.plan.part(p);
    sim::Op& op = g_.op(id);
    op.reads.push_back(sim::access_floats(
        st.gating.gate.data(), part.chunk_begin, part.chunk_rows));
    op.reads.push_back(
        sim::access_rows(st.out, part.chunk_begin, part.chunk_rows));
    op.writes.push_back(
        sim::access_rows(st.out, part.chunk_begin, part.chunk_rows));
  }
  return id;
}

int OpEmitter::gate_scale_backward(std::string label, int p, int d,
                                   std::vector<int> deps) {
  std::function<void()> fn;
  if (ctx_.functional()) {
    auto* c = &ctx_;
    fn = [c, p, d] {
      scale_by_gate_backward(
          dev(*c, d), c->plan.part(p).src[static_cast<std::size_t>(d)].order,
          d_ys_buffer(*c, d, p));
    };
  }
  const int id = g_.add(std::move(label), OpCategory::kElementwise,
                        StreamKind::kCompute, {d},
                        cost_.config().compute_launch_latency,
                        std::move(deps), std::move(fn));
  if (ctx_.functional()) {
    auto& st = dev(ctx_, d);
    const auto& part = ctx_.plan.part(p);
    const auto& routing = part.src[static_cast<std::size_t>(d)];
    sim::Op& op = g_.op(id);
    op.reads.push_back(
        sim::access_rows(st.dy, part.chunk_begin, part.chunk_rows));
    op.reads.push_back(
        sim::access_rows(st.out, part.chunk_begin, part.chunk_rows));
    op.reads.push_back(sim::access_floats(
        st.gating.gate.data(), part.chunk_begin, part.chunk_rows));
    op.writes.push_back(sim::access_floats(
        st.dgate.data(), part.chunk_begin, part.chunk_rows));
    op.writes.push_back(sim::access_rows(
        d_ys_buffer(ctx_, d, p), 0,
        static_cast<std::int64_t>(routing.order.size())));
  }
  return id;
}

int OpEmitter::expert(ExpertStage stage, std::string label, int p, int d,
                      std::int64_t rows, std::vector<int> deps) {
  const std::int64_t M = ctx_.d_model;
  const std::int64_t H = ctx_.d_hidden;
  std::uint64_t flops = 0;
  switch (stage) {
    case ExpertStage::kFfn1:
    case ExpertStage::kRecompute:
      flops = gemm_flops(rows, H, M);
      break;
    case ExpertStage::kFfn2:
      flops = gemm_flops(rows, M, H);
      break;
    case ExpertStage::kFused:
      flops = 2 * gemm_flops(rows, H, M);
      break;
    case ExpertStage::kBackward:
      flops = 4 * gemm_flops(rows, H, M);
      break;
  }
  // Grouped per-expert panels are what the device actually schedules, so
  // GEMM efficiency follows rows / experts.
  const std::int64_t eff_rows =
      std::max<std::int64_t>(1, rows / ctx_.plan.experts_per_device);
  std::function<void()> fn;
  if (ctx_.functional()) {
    auto* c = &ctx_;
    auto* experts = refs_.experts;
    fn = [c, experts, stage, p, d] {
      auto& mine = (*experts)[static_cast<std::size_t>(d)];
      const auto& rows_of =
          c->plan.part(p).expert_rows[static_cast<std::size_t>(d)];
      for (std::size_t k = 0; k < rows_of.size(); ++k) {
        if (rows_of[k].count == 0) continue;
        run_expert_stage(stage, mine[k], *c, p, d, rows_of[k]);
      }
    };
  }
  const int id = g_.add(std::move(label), OpCategory::kGemm,
                        StreamKind::kCompute, {d},
                        cost_.gemm_seconds(flops, eff_rows) / compute_scale_,
                        std::move(deps), std::move(fn),
                        cost_.gemm_efficiency(eff_rows));
  if (ctx_.functional()) {
    const std::int64_t recv = recv_rows(ctx_, p, d);
    auto rows_of = [&](Tensor& t) { return sim::access_rows(t, 0, recv); };
    auto& experts = (*refs_.experts)[static_cast<std::size_t>(d)];
    sim::Op& op = g_.op(id);
    switch (stage) {
      case ExpertStage::kFfn1:
      case ExpertStage::kRecompute:
        op.reads.push_back(rows_of(tdi_buffer(ctx_, d, p)));
        op.writes.push_back(rows_of(tm_buffer(ctx_, d, p)));
        declare_expert_param_reads(op, experts, true, false);
        break;
      case ExpertStage::kFfn2:
        op.reads.push_back(rows_of(tm_buffer(ctx_, d, p)));
        op.writes.push_back(rows_of(tdo_buffer(ctx_, d, p)));
        declare_expert_param_reads(op, experts, false, true);
        break;
      case ExpertStage::kFused:
        op.reads.push_back(rows_of(tdi_buffer(ctx_, d, p)));
        op.writes.push_back(rows_of(tm_buffer(ctx_, d, p)));
        op.writes.push_back(rows_of(tdo_buffer(ctx_, d, p)));
        declare_expert_param_reads(op, experts, true, true);
        break;
      case ExpertStage::kBackward:
        op.reads.push_back(rows_of(d_tdo_buffer(ctx_, d, p)));
        op.reads.push_back(rows_of(tdi_buffer(ctx_, d, p)));
        op.reads.push_back(rows_of(tm_buffer(ctx_, d, p)));
        op.writes.push_back(rows_of(d_tdi_buffer(ctx_, d, p)));
        declare_expert_param_reads(op, experts, true, true);
        declare_expert_grad_accum(op, experts);
        break;
    }
  }
  return id;
}

int OpEmitter::offload(Stash what, std::string label, int p, int d,
                       std::vector<int> deps) {
  return host_copy(what, /*to_host=*/true, std::move(label), p, d,
                   std::move(deps));
}

int OpEmitter::prefetch(Stash what, std::string label, int p, int d,
                        std::vector<int> deps) {
  return host_copy(what, /*to_host=*/false, std::move(label), p, d,
                   std::move(deps));
}

int OpEmitter::host_copy(Stash what, bool to_host, std::string label, int p,
                         int d, std::vector<int> deps) {
  const std::int64_t rows = recv_rows(ctx_, p, d);
  const std::int64_t width =
      what == Stash::kTdi ? ctx_.d_model : ctx_.d_hidden;
  // Each stash is staged in the format its device buffer is accounted in
  // (MoELayer::setup_forward_buffers): T_DI holds dispatch wire rows, so
  // its round trip is exact in ctx.dtype; T_M is the fp32 FFN intermediate
  // that S3/S4 recompute and `none` keeps, so S1/S2 must restore it
  // unrounded.
  const DType dt = what == Stash::kTdi ? ctx_.dtype : DType::kF32;
  // Slots are created here, at graph-build time; the closures only copy.
  mem::HostStaging::Slot* slot =
      ctx_.functional() ? &refs_.staging->slot(d, what, p) : nullptr;
  std::function<void()> fn;
  if (slot != nullptr) {
    auto* c = &ctx_;
    auto* st = refs_.staging;
    if (to_host) {
      fn = [c, st, slot, what, p, d, rows, dt] {
        st->store(*slot, stash_buffer(*c, what, d, p), rows, dt);
      };
    } else {
      fn = [c, st, slot, what, p, d] {
        st->restore(*slot, stash_buffer(*c, what, d, p));
      };
    }
  }
  const int id = g_.add(
      std::move(label),
      to_host ? OpCategory::kMemcpyD2H : OpCategory::kMemcpyH2D,
      StreamKind::kMem, {d},
      cost_.memcpy_seconds(quantized_bytes(rows, width, dt), d),
      std::move(deps), std::move(fn));
  if (slot != nullptr) {
    const sim::BufferAccess device_rows =
        sim::access_rows(stash_buffer(ctx_, what, d, p), 0, rows);
    const sim::BufferAccess host_slot = sim::access_token(slot);
    sim::Op& op = g_.op(id);
    op.reads.push_back(to_host ? device_rows : host_slot);
    op.writes.push_back(to_host ? host_slot : device_rows);
  }
  return id;
}

}  // namespace mpipe::core
