#include "baselines/fastermoe.h"

#include <algorithm>

#include "comm/collectives.h"
#include "comm/p2p.h"
#include "common/check.h"
#include "core/restore.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace mpipe::baselines {

using core::MoeStepContext;
using sim::OpCategory;
using sim::StreamKind;

namespace {

std::string tag(const char* name, int j) {
  return std::string(name) + std::to_string(j);
}

std::int64_t num_experts(const MoeStepContext& ctx) {
  return static_cast<std::int64_t>(ctx.plan.experts_per_device) *
         ctx.num_devices();
}

// Hazard declarations for the parallel executor (sim/graph_executor.h):
// every functional op states the byte ranges it touches. The P2P
// gather/scatter ops self-annotate from their segment tables in comm/p2p;
// the expert parameter/gradient declarations are the shared helpers in
// core/restore.h.

core::MoELayerOptions to_layer_options(const FasterMoEOptions& options) {
  core::MoELayerOptions o;
  o.d_model = options.d_model;
  o.d_hidden = options.d_hidden;
  o.num_experts = options.num_experts;
  o.activation = options.activation;
  // One partition holding the whole batch, per-step stash buffers and
  // eagerly freed gradient scratch: the split-by-N pipeline runs over the
  // destination devices inside the schedule, not over micro-batches.
  o.pipeline = false;
  o.num_partitions = 1;
  o.memory_reuse = false;
  o.sequential_temp_accounting = true;
  o.compute_scale = options.compute_scale;
  o.parallel_execution = options.parallel_execution;
  o.mode = options.mode;
  o.seed = options.seed;
  return o;
}

}  // namespace

FasterMoEScheduleBuilder::FasterMoEScheduleBuilder(
    const sim::Cluster& cluster, double compute_scale,
    ShadowingConfig shadowing)
    : world_(comm::ProcessGroup::world(cluster)),
      compute_scale_(compute_scale),
      shadowing_(shadowing) {
  MPIPE_EXPECTS(compute_scale_ > 0.0, "bad compute scale");
}

ShadowingDecision FasterMoEScheduleBuilder::shadowing_for(
    const MoeStepContext& ctx) const {
  // Functional steps validate the P2P pipeline numerics without shadowing.
  if (ctx.functional()) return {};
  return select_shadowed(ctx.plan.part(0).recv_rows, shadowing_);
}

std::uint64_t FasterMoEScheduleBuilder::step_model_state_bytes(
    const MoeStepContext& ctx) const {
  // Shadowed parameters are replicated on every device for the step.
  return shadow_bytes_per_destination(ctx.d_model, ctx.d_hidden, 1) *
         shadowing_for(ctx).shadowed.size();
}

std::int64_t FasterMoEScheduleBuilder::compute_rows(
    const MoeStepContext& ctx, int device, const ShadowingDecision& shadow) {
  const auto& part = ctx.plan.part(0);
  std::int64_t rows = 0;
  if (shadow.is_shadowed(device)) {
    // Only the device's own tokens for its (shadowed) experts remain.
    rows += part.src[static_cast<std::size_t>(device)]
                .send_counts[static_cast<std::size_t>(device)];
  } else {
    rows += part.recv_rows[static_cast<std::size_t>(device)];
  }
  // Tokens this device processes locally on behalf of shadowed experts.
  for (int j : shadow.shadowed) {
    if (j == device) continue;
    rows += part.src[static_cast<std::size_t>(device)]
                .send_counts[static_cast<std::size_t>(j)];
  }
  return rows;
}

sim::OpGraph FasterMoEScheduleBuilder::build_forward(
    MoeStepContext& ctx, const core::LayerRefs& refs) const {
  const auto& cost = world_.cluster().cost_model();
  const int P = ctx.num_devices();
  const std::int64_t M = ctx.d_model;
  const std::int64_t H = ctx.d_hidden;
  const std::int64_t B = ctx.plan.tokens_per_device;
  const std::int64_t E = num_experts(ctx);
  const double cs = compute_scale_;
  const auto& part = ctx.plan.part(0);
  const ShadowingDecision shadow = shadowing_for(ctx);

  sim::OpGraph g;

  std::vector<int> gate_ops(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    gate_ops[static_cast<std::size_t>(d)] =
        g.add(tag("G", d), OpCategory::kGemm, StreamKind::kCompute, {d},
              cost.gemm_seconds(gemm_flops(B, E, M),
                                std::max<std::int64_t>(B, 1)) /
                  cs,
              {}, nullptr,
              cost.gemm_efficiency(std::max<std::int64_t>(B, 1)));
  }

  // Parameter broadcast for shadowed experts.
  std::vector<int> bcast_ops;
  if (!shadow.shadowed.empty()) {
    // Only the hot expert is replicated, not the destination's whole set.
    const std::uint64_t bytes =
        shadow_bytes_per_destination(M, H, 1) / 2;  // params only, fwd
    for (int j : shadow.shadowed) {
      bcast_ops.push_back(g.add(
          tag("Bcast", j), OpCategory::kBroadcast, StreamKind::kComm,
          world_.devices(),
          cost.broadcast_seconds(bytes, world_.devices()), gate_ops,
          nullptr));
    }
  }

  // Pre-split the functional segment tables by destination / holder.
  std::vector<std::vector<comm::RowSegment>> gather_by_dst(
      static_cast<std::size_t>(P));
  std::vector<std::vector<comm::RowSegment>> scatter_by_src(
      static_cast<std::size_t>(P));
  if (ctx.functional()) {
    for (auto& seg : core::dispatch_segments(ctx, 0)) {
      gather_by_dst[static_cast<std::size_t>(seg.dst_device)].push_back(seg);
    }
    for (auto& seg : core::combine_segments(ctx, 0, false)) {
      scatter_by_src[static_cast<std::size_t>(seg.src_device)].push_back(seg);
    }
  }

  std::vector<std::vector<int>> gather_ops(static_cast<std::size_t>(P));
  std::vector<int> c_ops(static_cast<std::size_t>(P), -1);
  std::vector<std::vector<int>> scatter_ops(static_cast<std::size_t>(P));
  // Per home device: scatter fragments writing into its T_O.
  std::vector<std::vector<int>> arrivals(static_cast<std::size_t>(P));

  auto emit_gather = [&](int j) {
    std::vector<int>& ops = gather_ops[static_cast<std::size_t>(j)];
    const bool shadowed = shadow.is_shadowed(j);
    for (int src = 0; src < P; ++src) {
      if (shadowed && src != j) continue;  // tokens stay home
      const std::int64_t count =
          part.src[static_cast<std::size_t>(src)]
              .send_counts[static_cast<std::size_t>(j)];
      if (count == 0 && src != j) continue;
      if (ctx.functional()) {
        std::vector<comm::RowSegment> segs;
        for (const auto& seg : gather_by_dst[static_cast<std::size_t>(j)]) {
          if (seg.src_device == src) segs.push_back(seg);
        }
        if (segs.empty()) continue;
        ops.push_back(comm::send_recv_multi(
            g, world_, std::move(segs),
            tag("Gth", j) + ".s" + std::to_string(src), gate_ops));
      } else {
        ops.push_back(comm::send_recv_timed(
            g, world_, src, j,
            static_cast<std::uint64_t>(count) * M * sizeof(float),
            tag("Gth", j) + ".s" + std::to_string(src), gate_ops));
      }
    }
  };

  auto emit_compute = [&](int j) {
    std::vector<int> deps = gather_ops[static_cast<std::size_t>(j)];
    for (int op : bcast_ops) deps.push_back(op);
    const std::int64_t rows =
        std::max<std::int64_t>(1, compute_rows(ctx, j, shadow));
    const std::int64_t er =
        std::max<std::int64_t>(1, rows / ctx.plan.experts_per_device);
    const std::uint64_t flops = 2 * gemm_flops(rows, H, M);
    std::function<void()> fn;
    if (ctx.functional()) {
      auto* c = &ctx;
      auto* experts = refs.experts;
      fn = [c, experts, j] {
        const auto& spans_of =
            c->plan.part(0).expert_spans[static_cast<std::size_t>(j)];
        for (std::size_t k = 0; k < spans_of.size(); ++k) {
          (*experts)[static_cast<std::size_t>(j)][k].forward_rows(
              core::tdi_buffer(*c, j, 0), spans_of[k],
              core::tm_buffer(*c, j, 0), core::tdo_buffer(*c, j, 0));
        }
      };
    }
    const int id =
        g.add(tag("C", j), OpCategory::kGemm, StreamKind::kCompute, {j},
              cost.gemm_seconds(flops, er) / cs, std::move(deps),
              std::move(fn), cost.gemm_efficiency(er));
    if (ctx.functional()) {
      const std::int64_t recv =
          part.recv_rows[static_cast<std::size_t>(j)];
      sim::Op& op = g.op(id);
      op.reads.push_back(
          sim::access_rows(core::tdi_buffer(ctx, j, 0), 0, recv));
      op.writes.push_back(
          sim::access_rows(core::tm_buffer(ctx, j, 0), 0, recv));
      op.writes.push_back(
          sim::access_rows(core::tdo_buffer(ctx, j, 0), 0, recv));
      core::declare_expert_param_reads(
          op, (*refs.experts)[static_cast<std::size_t>(j)], /*ffn1=*/true,
          /*ffn2=*/true);
    }
    c_ops[static_cast<std::size_t>(j)] = id;
  };

  auto emit_scatter = [&](int j) {
    const bool shadowed = shadow.is_shadowed(j);
    for (int dst = 0; dst < P; ++dst) {
      if (shadowed && dst != j) continue;
      const std::int64_t count =
          part.src[static_cast<std::size_t>(dst)]
              .send_counts[static_cast<std::size_t>(j)];
      if (count == 0 && dst != j) continue;
      int op = -1;
      if (ctx.functional()) {
        std::vector<comm::RowSegment> segs;
        for (const auto& seg : scatter_by_src[static_cast<std::size_t>(j)]) {
          if (seg.dst_device == dst) segs.push_back(seg);
        }
        if (segs.empty()) continue;
        op = comm::send_recv_multi(
            g, world_, std::move(segs),
            tag("Sct", j) + ".d" + std::to_string(dst),
            {c_ops[static_cast<std::size_t>(j)]});
      } else {
        op = comm::send_recv_timed(
            g, world_, j, dst,
            static_cast<std::uint64_t>(count) * M * sizeof(float),
            tag("Sct", j) + ".d" + std::to_string(dst),
            {c_ops[static_cast<std::size_t>(j)]});
      }
      scatter_ops[static_cast<std::size_t>(j)].push_back(op);
      arrivals[static_cast<std::size_t>(dst)].push_back(op);
    }
  };

  // Enqueue all gathers first so later destinations' receives are not
  // trapped behind earlier scatter arrivals in the receiver FIFO; computes
  // start as their gathers drain, scatters trail the computes.
  for (int j = 0; j < P; ++j) emit_gather(j);
  for (int j = 0; j < P; ++j) emit_compute(j);
  for (int j = 0; j < P; ++j) emit_scatter(j);

  // Gate scaling at home devices.
  for (int d = 0; d < P; ++d) {
    std::function<void()> fn;
    if (ctx.functional()) {
      auto* c = &ctx;
      fn = [c, d] {
        auto& st = c->dev[static_cast<std::size_t>(d)];
        core::scale_by_gate(st, 0, st.out.dim(0));
      };
    }
    const int id =
        g.add(tag("scale", d), OpCategory::kElementwise,
              StreamKind::kCompute, {d},
              cost.config().compute_launch_latency,
              arrivals[static_cast<std::size_t>(d)], std::move(fn));
    if (ctx.functional()) {
      auto& st = ctx.dev[static_cast<std::size_t>(d)];
      sim::Op& op = g.op(id);
      op.reads.push_back(sim::access_floats(
          st.gating.gate.data(), 0,
          static_cast<std::int64_t>(st.gating.gate.size())));
      op.reads.push_back(sim::access_whole(st.out));
      op.writes.push_back(sim::access_whole(st.out));
    }
  }
  return g;
}

sim::OpGraph FasterMoEScheduleBuilder::build_backward(
    MoeStepContext& ctx, const core::LayerRefs& refs) const {
  const auto& cost = world_.cluster().cost_model();
  const int P = ctx.num_devices();
  const std::int64_t M = ctx.d_model;
  const std::int64_t H = ctx.d_hidden;
  const std::int64_t B = ctx.plan.tokens_per_device;
  const std::int64_t E = num_experts(ctx);
  const double cs = compute_scale_;
  const auto& part = ctx.plan.part(0);
  const ShadowingDecision shadow = shadowing_for(ctx);

  sim::OpGraph g;

  // Gradient scaling + dgate, per home device.
  std::vector<int> bs(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    std::function<void()> fn;
    if (ctx.functional()) {
      auto* c = &ctx;
      fn = [c, d] {
        core::scale_by_gate_backward(
            c->dev[static_cast<std::size_t>(d)],
            c->plan.part(0).src[static_cast<std::size_t>(d)].order,
            core::d_ys_buffer(*c, d, 0));
      };
    }
    const int id =
        g.add(tag("bscale", d), OpCategory::kElementwise,
              StreamKind::kCompute, {d},
              cost.config().compute_launch_latency, {}, std::move(fn));
    if (ctx.functional()) {
      auto& st = ctx.dev[static_cast<std::size_t>(d)];
      const auto& routing = part.src[static_cast<std::size_t>(d)];
      sim::Op& op = g.op(id);
      op.reads.push_back(sim::access_whole(st.dy));
      op.reads.push_back(sim::access_whole(st.out));
      op.reads.push_back(sim::access_floats(
          st.gating.gate.data(), 0,
          static_cast<std::int64_t>(st.gating.gate.size())));
      op.writes.push_back(sim::access_floats(
          st.dgate.data(), 0, static_cast<std::int64_t>(st.dgate.size())));
      op.writes.push_back(sim::access_rows(
          core::d_ys_buffer(ctx, d, 0), 0,
          static_cast<std::int64_t>(routing.order.size())));
    }
    bs[static_cast<std::size_t>(d)] = id;
  }

  std::vector<std::vector<comm::RowSegment>> gather_by_dst(
      static_cast<std::size_t>(P));
  std::vector<std::vector<comm::RowSegment>> scatter_by_src(
      static_cast<std::size_t>(P));
  if (ctx.functional()) {
    for (auto& seg : core::grad_dispatch_segments(ctx, 0)) {
      gather_by_dst[static_cast<std::size_t>(seg.dst_device)].push_back(seg);
    }
    for (auto& seg : core::combine_segments(ctx, 0, true)) {
      scatter_by_src[static_cast<std::size_t>(seg.src_device)].push_back(seg);
    }
  }

  std::vector<std::vector<int>> gather_ops(static_cast<std::size_t>(P));
  std::vector<int> c_ops(static_cast<std::size_t>(P), -1);
  std::vector<std::vector<int>> arrivals(static_cast<std::size_t>(P));

  // Same phase ordering as forward: all gradient gathers, then expert
  // backwards, then the gradient scatters.
  for (int j = 0; j < P; ++j) {
    const bool shadowed = shadow.is_shadowed(j);
    for (int src = 0; src < P; ++src) {
      if (shadowed && src != j) continue;
      const std::int64_t count =
          part.src[static_cast<std::size_t>(src)]
              .send_counts[static_cast<std::size_t>(j)];
      if (count == 0 && src != j) continue;
      if (ctx.functional()) {
        std::vector<comm::RowSegment> segs;
        for (const auto& seg : gather_by_dst[static_cast<std::size_t>(j)]) {
          if (seg.src_device == src) segs.push_back(seg);
        }
        if (segs.empty()) continue;
        gather_ops[static_cast<std::size_t>(j)].push_back(
            comm::send_recv_multi(
                g, world_, std::move(segs),
                tag("Gth'", j) + ".s" + std::to_string(src),
                {bs[static_cast<std::size_t>(src)]}));
      } else {
        gather_ops[static_cast<std::size_t>(j)].push_back(
            comm::send_recv_timed(
                g, world_, src, j,
                static_cast<std::uint64_t>(count) * M * sizeof(float),
                tag("Gth'", j) + ".s" + std::to_string(src),
                {bs[static_cast<std::size_t>(src)]}));
      }
    }
  }

  for (int j = 0; j < P; ++j) {
    // Expert backward on j.
    const std::int64_t rows =
        std::max<std::int64_t>(1, compute_rows(ctx, j, shadow));
    const std::int64_t er =
        std::max<std::int64_t>(1, rows / ctx.plan.experts_per_device);
    std::function<void()> fn;
    if (ctx.functional()) {
      auto* c = &ctx;
      auto* experts = refs.experts;
      fn = [c, experts, j] {
        const auto& spans_of =
            c->plan.part(0).expert_spans[static_cast<std::size_t>(j)];
        for (std::size_t k = 0; k < spans_of.size(); ++k) {
          (*experts)[static_cast<std::size_t>(j)][k].backward_rows(
              core::d_tdo_buffer(*c, j, 0), core::tdi_buffer(*c, j, 0),
              core::tm_buffer(*c, j, 0), spans_of[k],
              core::d_tdi_buffer(*c, j, 0));
        }
      };
    }
    const int id =
        g.add(tag("Cb", j), OpCategory::kGemm, StreamKind::kCompute, {j},
              cost.gemm_seconds(4 * gemm_flops(rows, H, M), er) / cs,
              gather_ops[static_cast<std::size_t>(j)], std::move(fn),
              cost.gemm_efficiency(er));
    if (ctx.functional()) {
      const std::int64_t recv =
          part.recv_rows[static_cast<std::size_t>(j)];
      sim::Op& op = g.op(id);
      op.reads.push_back(
          sim::access_rows(core::d_tdo_buffer(ctx, j, 0), 0, recv));
      op.reads.push_back(
          sim::access_rows(core::tdi_buffer(ctx, j, 0), 0, recv));
      op.reads.push_back(
          sim::access_rows(core::tm_buffer(ctx, j, 0), 0, recv));
      op.writes.push_back(
          sim::access_rows(core::d_tdi_buffer(ctx, j, 0), 0, recv));
      auto& experts = (*refs.experts)[static_cast<std::size_t>(j)];
      core::declare_expert_param_reads(op, experts, /*ffn1=*/true,
                                       /*ffn2=*/true);
      core::declare_expert_grad_accum(op, experts);
    }
    c_ops[static_cast<std::size_t>(j)] = id;
  }

  // Scatter input gradients home as each destination's backward finishes.
  for (int j = 0; j < P; ++j) {
    const bool shadowed = shadow.is_shadowed(j);
    for (int dst = 0; dst < P; ++dst) {
      if (shadowed && dst != j) continue;
      const std::int64_t count =
          part.src[static_cast<std::size_t>(dst)]
              .send_counts[static_cast<std::size_t>(j)];
      if (count == 0 && dst != j) continue;
      int op = -1;
      if (ctx.functional()) {
        std::vector<comm::RowSegment> segs;
        for (const auto& seg : scatter_by_src[static_cast<std::size_t>(j)]) {
          if (seg.dst_device == dst) segs.push_back(seg);
        }
        if (segs.empty()) continue;
        op = comm::send_recv_multi(
            g, world_, std::move(segs),
            tag("Sct'", j) + ".d" + std::to_string(dst),
            {c_ops[static_cast<std::size_t>(j)]});
      } else {
        op = comm::send_recv_timed(
            g, world_, j, dst,
            static_cast<std::uint64_t>(count) * M * sizeof(float),
            tag("Sct'", j) + ".d" + std::to_string(dst),
            {c_ops[static_cast<std::size_t>(j)]});
      }
      arrivals[static_cast<std::size_t>(dst)].push_back(op);
    }
  }

  // Shadowed experts trained on several devices need a gradient sync.
  if (!shadow.shadowed.empty()) {
    const std::uint64_t bytes =
        shadow_bytes_per_destination(M, H, 1) / 2;  // gradients
    std::vector<int> deps = c_ops;
    for (int j : shadow.shadowed) {
      g.add(tag("ARshadow", j), OpCategory::kAllReduce, StreamKind::kComm,
            world_.devices(),
            cost.allreduce_seconds(bytes, world_.devices()), deps, nullptr);
    }
  }

  // Gating backward + gradient sync.
  std::vector<int> gb(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    std::vector<int> deps = arrivals[static_cast<std::size_t>(d)];
    deps.push_back(bs[static_cast<std::size_t>(d)]);
    std::function<void()> fn;
    if (ctx.functional()) {
      auto* c = &ctx;
      auto* gates = refs.gates;
      fn = [c, gates, d] {
        auto& st = c->dev[static_cast<std::size_t>(d)];
        Tensor dxg = (*gates)[static_cast<std::size_t>(d)].backward(
            st.x, st.gating, st.dgate);
        add_(st.dx, dxg);
      };
    }
    const int id =
        g.add(tag("Gb", d), OpCategory::kGemm, StreamKind::kCompute, {d},
              cost.gemm_seconds(2 * gemm_flops(B, E, M),
                                std::max<std::int64_t>(B, 1)) /
                  cs,
              std::move(deps), std::move(fn),
              cost.gemm_efficiency(std::max<std::int64_t>(B, 1)));
    if (ctx.functional()) {
      auto& st = ctx.dev[static_cast<std::size_t>(d)];
      auto& gate = (*refs.gates)[static_cast<std::size_t>(d)];
      sim::Op& op = g.op(id);
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
    gb[static_cast<std::size_t>(d)] = id;
  }
  const std::uint64_t gate_bytes =
      static_cast<std::uint64_t>(M) * E * sizeof(float);
  if (ctx.functional()) {
    std::vector<Tensor*> grads;
    for (int d = 0; d < P; ++d) {
      grads.push_back(
          &(*refs.gates)[static_cast<std::size_t>(d)].weight_grad());
    }
    comm::allreduce_sum(g, world_, std::move(grads), "ARg", gb);
  } else {
    g.add("ARg", OpCategory::kAllReduce, StreamKind::kComm,
          world_.devices(),
          cost.allreduce_seconds(gate_bytes, world_.devices()), gb, nullptr);
  }
  return g;
}

FasterMoELayer::FasterMoELayer(sim::Cluster& cluster,
                               FasterMoEOptions options)
    : core::MoELayer(cluster, to_layer_options(options),
                     std::make_unique<FasterMoEScheduleBuilder>(
                         cluster, options.compute_scale, options.shadowing)) {
}

}  // namespace mpipe::baselines
