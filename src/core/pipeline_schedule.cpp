#include "core/pipeline_schedule.h"

#include <algorithm>

#include "comm/collectives.h"
#include "common/check.h"
#include "core/restore.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace mpipe::core {

namespace {

using sim::OpCategory;
using sim::StreamKind;

std::string tag(const char* name, int p) {
  return std::string(name) + std::to_string(p);
}
std::string tag(const char* name, int p, int d) {
  return std::string(name) + std::to_string(p) + ".d" + std::to_string(d);
}

/// Rows device d receives in partition p.
std::int64_t recv_rows(const MoeStepContext& ctx, int p, int d) {
  return ctx.plan.part(p).recv_rows[static_cast<std::size_t>(d)];
}

/// GEMM-efficiency row count: grouped per-expert panels are what the
/// device actually schedules, so efficiency follows rows / experts.
std::int64_t eff_rows(const MoeStepContext& ctx, std::int64_t rows) {
  return std::max<std::int64_t>(1, rows / ctx.plan.experts_per_device);
}

// Hazard declarations: every functional op states the byte ranges it
// touches so the concurrent executor's validator (sim/graph_executor.h)
// can prove unordered ops disjoint. Ring-slot buffers alias across
// partitions by construction (same data pointer), which is exactly how
// the validator sees the §III-D WAR hazards the schedule's explicit edges
// must cover. The expert parameter/gradient declarations live in
// core/restore.h (shared with the baselines).

}  // namespace

PipelineScheduleBuilder::PipelineScheduleBuilder(
    const comm::ProcessGroup& group, mem::HostStaging& staging,
    double compute_scale, double comm_scale)
    : group_(group),
      staging_(staging),
      compute_scale_(compute_scale),
      comm_scale_(comm_scale) {
  MPIPE_EXPECTS(compute_scale > 0.0, "compute scale must be positive");
  MPIPE_EXPECTS(comm_scale > 0.0, "comm scale must be positive");
}

void PipelineScheduleBuilder::apply_comm_scale(sim::OpGraph& g,
                                               int id) const {
  if (comm_scale_ != 1.0) {
    g.op(id).base_seconds /= comm_scale_;
  }
}

sim::OpGraph PipelineScheduleBuilder::build_forward(
    MoeStepContext& ctx, const LayerRefs& refs) const {
  const auto& cost = group_.cluster().cost_model();
  const int P = ctx.num_devices();
  const int n = ctx.n();
  const std::int64_t M = ctx.d_model;
  const std::int64_t H = ctx.d_hidden;
  const std::int64_t B = ctx.plan.tokens_per_device;
  const std::int64_t E =
      static_cast<std::int64_t>(P) * ctx.plan.experts_per_device;
  // Wire/storage format for payloads, offloads and expert GEMMs. The gate
  // GEMMs and their allreduce stay fp32 — the router is never quantized.
  const DType dt = ctx.dtype;
  // Forward-only steps never restore, so they never offload: the serving
  // tier's forward graph is a training forward minus every Htdi/Htm op,
  // whatever the strategy says about how a backward *would* restore.
  const bool offload_tdi = ctx.reuse() && !ctx.forward_only &&
                           !restores_tdi_by_comm(ctx.strategy);
  const bool offload_tm = ctx.reuse() && !ctx.forward_only &&
                          !restores_tm_by_recompute(ctx.strategy);

  sim::OpGraph g;

  // Gating: one router GEMM per device (functionally precomputed — the
  // dispatch plan required it — so the closure is empty).
  std::vector<int> gate_ops(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    const std::uint64_t flops =
        gemm_flops(B, E, M);
    gate_ops[static_cast<std::size_t>(d)] =
        g.add(tag("G", 0, d), OpCategory::kGemm, StreamKind::kCompute, {d},
              cost.gemm_seconds(flops, std::max<std::int64_t>(B, 1)) / compute_scale_, {},
              nullptr, cost.gemm_efficiency(std::max<std::int64_t>(B, 1)));
  }

  std::vector<int> s_ops(static_cast<std::size_t>(n), -1);
  std::vector<int> r_ops(static_cast<std::size_t>(n), -1);
  auto grid = [&] {
    return std::vector<std::vector<int>>(
        static_cast<std::size_t>(n),
        std::vector<int>(static_cast<std::size_t>(P), -1));
  };
  auto c1 = grid(), c2 = grid(), od_tdi = grid(), od_tm = grid();

  auto emit_combine = [&](int p) {
    std::vector<int> deps;
    for (int d = 0; d < P; ++d) {
      deps.push_back(c2[static_cast<std::size_t>(p)]
                       [static_cast<std::size_t>(d)]);
    }
    if (ctx.functional()) {
      auto segments = combine_segments(ctx, p, /*backward=*/false);
      ctx.comm_payload_bytes += comm::max_bytes_sent(segments, dt);
      r_ops[static_cast<std::size_t>(p)] =
          comm::alltoall(g, group_, std::move(segments), tag("R", p),
                         std::move(deps), dt);
    } else {
      const std::uint64_t payload = dispatch_payload_bytes(ctx, p);
      ctx.comm_payload_bytes += payload;
      r_ops[static_cast<std::size_t>(p)] = comm::alltoall_timed(
          g, group_, payload, tag("R", p), std::move(deps));
    }
    apply_comm_scale(g, r_ops[static_cast<std::size_t>(p)]);
  };

  for (int p = 0; p < n; ++p) {
    // ---- S_p: dispatch AllToAll --------------------------------------
    std::vector<int> s_deps = gate_ops;
    if (ctx.reuse() && p >= 2) {
      // WAR: the T_DI ring slot is reused from partition p-2; all of its
      // readers (C1 and the offload copy) must have finished.
      for (int d = 0; d < P; ++d) {
        s_deps.push_back(c1[static_cast<std::size_t>(p - 2)]
                           [static_cast<std::size_t>(d)]);
        if (offload_tdi) {
          s_deps.push_back(od_tdi[static_cast<std::size_t>(p - 2)]
                                 [static_cast<std::size_t>(d)]);
        }
      }
    }
    if (ctx.functional()) {
      auto segments = dispatch_segments(ctx, p);
      ctx.comm_payload_bytes += comm::max_bytes_sent(segments, dt);
      s_ops[static_cast<std::size_t>(p)] =
          comm::alltoall(g, group_, std::move(segments), tag("S", p),
                         std::move(s_deps), dt);
    } else {
      const std::uint64_t payload = dispatch_payload_bytes(ctx, p);
      ctx.comm_payload_bytes += payload;
      s_ops[static_cast<std::size_t>(p)] = comm::alltoall_timed(
          g, group_, payload, tag("S", p), std::move(s_deps));
    }
    apply_comm_scale(g, s_ops[static_cast<std::size_t>(p)]);

    // ---- offload T_DI (S1, S3) ---------------------------------------
    if (offload_tdi) {
      for (int d = 0; d < P; ++d) {
        const std::int64_t rows = recv_rows(ctx, p, d);
        const std::uint64_t bytes = quantized_bytes(rows, M, dt);
        std::function<void()> fn;
        if (ctx.functional()) {
          auto* c = &ctx;
          auto* st = &staging_;
          fn = [c, st, p, d, rows, dt] {
            offload_rows(*st, d, staging_key("tdi", p),
                         tdi_buffer(*c, d, p), rows, dt);
          };
        }
        const int id =
            g.add(tag("Htdi", p, d), OpCategory::kMemcpyD2H,
                  StreamKind::kMem, {d}, cost.memcpy_seconds(bytes, d),
                  {s_ops[static_cast<std::size_t>(p)]}, std::move(fn));
        if (ctx.functional()) {
          sim::Op& op = g.op(id);
          op.reads.push_back(
              sim::access_rows(tdi_buffer(ctx, d, p), 0, rows));
          op.writes.push_back(sim::access_token(
              staging_.slot_token(d, staging_key("tdi", p))));
        }
        od_tdi[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] = id;
      }
    }

    // ---- C1_p: FFN1 ----------------------------------------------------
    for (int d = 0; d < P; ++d) {
      std::vector<int> deps = {s_ops[static_cast<std::size_t>(p)]};
      if (ctx.reuse() && p >= 1) {
        // WAR: the single T_M slot is reused every partition.
        deps.push_back(c2[static_cast<std::size_t>(p - 1)]
                         [static_cast<std::size_t>(d)]);
        if (offload_tm) {
          deps.push_back(od_tm[static_cast<std::size_t>(p - 1)]
                              [static_cast<std::size_t>(d)]);
        }
      }
      const std::int64_t rows = recv_rows(ctx, p, d);
      const std::uint64_t flops = gemm_flops(rows, H, M);
      const std::int64_t er = eff_rows(ctx, rows);
      std::function<void()> fn;
      if (ctx.functional()) {
        auto* c = &ctx;
        auto* experts = refs.experts;
        fn = [c, experts, p, d] {
          const auto& spans_of =
              c->plan.part(p).expert_spans[static_cast<std::size_t>(d)];
          for (std::size_t k = 0; k < spans_of.size(); ++k) {
            (*experts)[static_cast<std::size_t>(d)][k].forward_mid_rows(
                tdi_buffer(*c, d, p), spans_of[k], tm_buffer(*c, d, p));
          }
        };
      }
      const int id =
          g.add(tag("C1_", p, d), OpCategory::kGemm, StreamKind::kCompute,
                {d}, cost.gemm_seconds(flops, er) / compute_scale_,
                std::move(deps), std::move(fn),
                cost.gemm_efficiency(er));
      if (ctx.functional()) {
        sim::Op& op = g.op(id);
        op.reads.push_back(sim::access_rows(tdi_buffer(ctx, d, p), 0, rows));
        op.writes.push_back(sim::access_rows(tm_buffer(ctx, d, p), 0, rows));
        declare_expert_param_reads(
            op, (*refs.experts)[static_cast<std::size_t>(d)],
            /*ffn1=*/true, /*ffn2=*/false);
      }
      c1[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] = id;
    }

    // ---- offload T_M (S1, S2) ------------------------------------------
    if (offload_tm) {
      for (int d = 0; d < P; ++d) {
        const std::int64_t rows = recv_rows(ctx, p, d);
        const std::uint64_t bytes = quantized_bytes(rows, H, dt);
        std::function<void()> fn;
        if (ctx.functional()) {
          auto* c = &ctx;
          auto* st = &staging_;
          fn = [c, st, p, d, rows, dt] {
            offload_rows(*st, d, staging_key("tm", p), tm_buffer(*c, d, p),
                         rows, dt);
          };
        }
        const int id =
            g.add(tag("Htm", p, d), OpCategory::kMemcpyD2H, StreamKind::kMem,
                  {d}, cost.memcpy_seconds(bytes, d),
                  {c1[static_cast<std::size_t>(p)]
                     [static_cast<std::size_t>(d)]},
                  std::move(fn));
        if (ctx.functional()) {
          sim::Op& op = g.op(id);
          op.reads.push_back(
              sim::access_rows(tm_buffer(ctx, d, p), 0, rows));
          op.writes.push_back(sim::access_token(
              staging_.slot_token(d, staging_key("tm", p))));
        }
        od_tm[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] = id;
      }
    }

    // ---- C2_p: FFN2 ----------------------------------------------------
    for (int d = 0; d < P; ++d) {
      std::vector<int> deps = {
          c1[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)]};
      if (ctx.reuse() && p >= 2) {
        // WAR: T_DO ring slot reused from p-2, read by R_{p-2}.
        deps.push_back(r_ops[static_cast<std::size_t>(p - 2)]);
      }
      const std::int64_t rows = recv_rows(ctx, p, d);
      const std::uint64_t flops = gemm_flops(rows, M, H);
      const std::int64_t er = eff_rows(ctx, rows);
      std::function<void()> fn;
      if (ctx.functional()) {
        auto* c = &ctx;
        auto* experts = refs.experts;
        fn = [c, experts, p, d] {
          const auto& spans_of =
              c->plan.part(p).expert_spans[static_cast<std::size_t>(d)];
          for (std::size_t k = 0; k < spans_of.size(); ++k) {
            (*experts)[static_cast<std::size_t>(d)][k].forward_out_rows(
                tm_buffer(*c, d, p), spans_of[k], tdo_buffer(*c, d, p));
          }
        };
      }
      const int id =
          g.add(tag("C2_", p, d), OpCategory::kGemm, StreamKind::kCompute,
                {d}, cost.gemm_seconds(flops, er) / compute_scale_,
                std::move(deps), std::move(fn),
                cost.gemm_efficiency(er));
      if (ctx.functional()) {
        sim::Op& op = g.op(id);
        op.reads.push_back(sim::access_rows(tm_buffer(ctx, d, p), 0, rows));
        op.writes.push_back(sim::access_rows(tdo_buffer(ctx, d, p), 0, rows));
        declare_expert_param_reads(
            op, (*refs.experts)[static_cast<std::size_t>(d)],
            /*ffn1=*/false, /*ffn2=*/true);
      }
      c2[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] = id;
    }

    // ---- R_{p-1}: combine, alternating with S on the comm stream -------
    if (p >= 1) emit_combine(p - 1);
  }
  emit_combine(n - 1);

  // ---- gate scaling: T_O rows *= gate, deferred to the comp tail so it
  // cannot head-of-line block later C1/C2 ops.
  for (int p = 0; p < n; ++p) {
    for (int d = 0; d < P; ++d) {
      std::function<void()> fn;
      if (ctx.functional()) {
        auto* c = &ctx;
        fn = [c, p, d] {
          const auto& part = c->plan.part(p);
          scale_by_gate(c->dev[static_cast<std::size_t>(d)],
                        part.chunk_begin, part.chunk_rows);
        };
      }
      const int id = g.add(tag("scale", p, d), OpCategory::kElementwise,
                           StreamKind::kCompute, {d},
                           cost.config().compute_launch_latency,
                           {r_ops[static_cast<std::size_t>(p)]},
                           std::move(fn));
      if (ctx.functional()) {
        auto& st = ctx.dev[static_cast<std::size_t>(d)];
        const auto& part = ctx.plan.part(p);
        sim::Op& op = g.op(id);
        op.reads.push_back(sim::access_floats(
            st.gating.gate.data(), part.chunk_begin, part.chunk_rows));
        op.reads.push_back(
            sim::access_rows(st.out, part.chunk_begin, part.chunk_rows));
        op.writes.push_back(
            sim::access_rows(st.out, part.chunk_begin, part.chunk_rows));
      }
    }
  }
  return g;
}

sim::OpGraph PipelineScheduleBuilder::build_backward(
    MoeStepContext& ctx, const LayerRefs& refs) const {
  const auto& cost = group_.cluster().cost_model();
  const int P = ctx.num_devices();
  const int n = ctx.n();
  const std::int64_t M = ctx.d_model;
  const std::int64_t H = ctx.d_hidden;
  const std::int64_t B = ctx.plan.tokens_per_device;
  const std::int64_t E =
      static_cast<std::int64_t>(P) * ctx.plan.experts_per_device;
  const DType dt = ctx.dtype;
  const bool tdi_by_comm = restores_tdi_by_comm(ctx.strategy);
  const bool tm_by_recompute = restores_tm_by_recompute(ctx.strategy);

  sim::OpGraph g;

  // ---- per-partition gradient scaling + dgate accumulation ------------
  auto grid = [&] {
    return std::vector<std::vector<int>>(
        static_cast<std::size_t>(n),
        std::vector<int>(static_cast<std::size_t>(P), -1));
  };
  auto bs = grid(), cb = grid(), rs_tdi = grid(), rs_tm = grid();
  std::vector<int> sb(static_cast<std::size_t>(n), -1);
  std::vector<int> rb(static_cast<std::size_t>(n), -1);
  std::vector<int> rc_tdi(static_cast<std::size_t>(n), -1);

  for (int p = 0; p < n; ++p) {
    for (int d = 0; d < P; ++d) {
      std::function<void()> fn;
      if (ctx.functional()) {
        auto* c = &ctx;
        fn = [c, p, d] {
          scale_by_gate_backward(
              c->dev[static_cast<std::size_t>(d)],
              c->plan.part(p).src[static_cast<std::size_t>(d)].order,
              d_ys_buffer(*c, d, p));
        };
      }
      const int id =
          g.add(tag("bscale", p, d), OpCategory::kElementwise,
                StreamKind::kCompute, {d},
                cost.config().compute_launch_latency, {}, std::move(fn));
      if (ctx.functional()) {
        auto& st = ctx.dev[static_cast<std::size_t>(d)];
        const auto& part = ctx.plan.part(p);
        const auto& routing = part.src[static_cast<std::size_t>(d)];
        sim::Op& op = g.op(id);
        op.reads.push_back(
            sim::access_rows(st.dy, part.chunk_begin, part.chunk_rows));
        op.reads.push_back(
            sim::access_rows(st.out, part.chunk_begin, part.chunk_rows));
        op.reads.push_back(sim::access_floats(
            st.gating.gate.data(), part.chunk_begin, part.chunk_rows));
        op.writes.push_back(sim::access_floats(
            st.dgate.data(), part.chunk_begin, part.chunk_rows));
        op.writes.push_back(sim::access_rows(
            d_ys_buffer(ctx, d, p), 0,
            static_cast<std::int64_t>(routing.order.size())));
      }
      bs[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] = id;
    }
  }

  for (int p = 0; p < n; ++p) {
    // ---- S'_p: gradient dispatch ----------------------------------------
    std::vector<int> s_deps;
    for (int d = 0; d < P; ++d) {
      s_deps.push_back(bs[static_cast<std::size_t>(p)]
                         [static_cast<std::size_t>(d)]);
    }
    if (ctx.reuse() && p >= 2) {
      // WAR: d_TDO ring slot reused from p-2, read by Cb_{p-2}.
      for (int d = 0; d < P; ++d) {
        s_deps.push_back(cb[static_cast<std::size_t>(p - 2)]
                           [static_cast<std::size_t>(d)]);
      }
    }
    if (ctx.functional()) {
      auto segments = grad_dispatch_segments(ctx, p);
      ctx.comm_payload_bytes += comm::max_bytes_sent(segments, dt);
      sb[static_cast<std::size_t>(p)] =
          comm::alltoall(g, group_, std::move(segments), tag("S'", p),
                         std::move(s_deps), dt);
    } else {
      const std::uint64_t payload = dispatch_payload_bytes(ctx, p);
      ctx.comm_payload_bytes += payload;
      sb[static_cast<std::size_t>(p)] = comm::alltoall_timed(
          g, group_, payload, tag("S'", p), std::move(s_deps));
    }
    apply_comm_scale(g, sb[static_cast<std::size_t>(p)]);

    // ---- restore T_DI / T_M (reuse strategies only) ---------------------
    if (ctx.reuse()) {
      // WAR guards for the slots being rewritten.
      std::vector<int> war_tdi, war_tm;
      if (p >= 2) {
        for (int d = 0; d < P; ++d) {
          war_tdi.push_back(cb[static_cast<std::size_t>(p - 2)]
                              [static_cast<std::size_t>(d)]);
          if (tm_by_recompute) {
            war_tdi.push_back(rs_tm[static_cast<std::size_t>(p - 2)]
                                   [static_cast<std::size_t>(d)]);
          }
        }
      }
      if (p >= 1) {
        for (int d = 0; d < P; ++d) {
          war_tm.push_back(cb[static_cast<std::size_t>(p - 1)]
                             [static_cast<std::size_t>(d)]);
        }
      }

      if (tdi_by_comm) {
        // Re-communication: replay the forward dispatch (S2, S4).
        std::vector<int> deps = war_tdi;
        if (ctx.functional()) {
          auto segments = dispatch_segments(ctx, p);
          ctx.comm_payload_bytes += comm::max_bytes_sent(segments, dt);
          rc_tdi[static_cast<std::size_t>(p)] =
              comm::alltoall(g, group_, std::move(segments), tag("Sr", p),
                             std::move(deps), dt);
        } else {
          const std::uint64_t payload = dispatch_payload_bytes(ctx, p);
          ctx.comm_payload_bytes += payload;
          rc_tdi[static_cast<std::size_t>(p)] = comm::alltoall_timed(
              g, group_, payload, tag("Sr", p), std::move(deps));
        }
        apply_comm_scale(g, rc_tdi[static_cast<std::size_t>(p)]);
        for (int d = 0; d < P; ++d) {
          rs_tdi[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
              rc_tdi[static_cast<std::size_t>(p)];
        }
      } else {
        // Prefetch from host (S1, S3).
        for (int d = 0; d < P; ++d) {
          const std::int64_t rows = recv_rows(ctx, p, d);
          const std::uint64_t bytes = quantized_bytes(rows, M, dt);
          std::vector<int> deps = war_tdi;
          std::function<void()> fn;
          if (ctx.functional()) {
            auto* c = &ctx;
            auto* st = &staging_;
            fn = [c, st, p, d] {
              prefetch_rows(*st, d, staging_key("tdi", p),
                            tdi_buffer(*c, d, p));
            };
          }
          const int id =
              g.add(tag("Dtdi", p, d), OpCategory::kMemcpyH2D,
                    StreamKind::kMem, {d}, cost.memcpy_seconds(bytes, d),
                    std::move(deps), std::move(fn));
          if (ctx.functional()) {
            sim::Op& op = g.op(id);
            op.reads.push_back(sim::access_token(
                staging_.slot_token(d, staging_key("tdi", p))));
            op.writes.push_back(
                sim::access_rows(tdi_buffer(ctx, d, p), 0, rows));
          }
          rs_tdi[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
              id;
        }
      }

      for (int d = 0; d < P; ++d) {
        const std::int64_t rows = recv_rows(ctx, p, d);
        std::vector<int> deps = war_tm;
        if (tm_by_recompute) {
          // Recompute T_M from the restored T_DI (S3, S4).
          deps.push_back(rs_tdi[static_cast<std::size_t>(p)]
                               [static_cast<std::size_t>(d)]);
          const std::uint64_t flops = gemm_flops(rows, H, M);
          const std::int64_t er = eff_rows(ctx, rows);
          std::function<void()> fn;
          if (ctx.functional()) {
            auto* c = &ctx;
            auto* experts = refs.experts;
            fn = [c, experts, p, d] {
              const auto& spans_of =
                  c->plan.part(p).expert_spans[static_cast<std::size_t>(d)];
              for (std::size_t k = 0; k < spans_of.size(); ++k) {
                (*experts)[static_cast<std::size_t>(d)][k]
                    .recompute_mid_rows(tdi_buffer(*c, d, p), spans_of[k],
                                        tm_buffer(*c, d, p));
              }
            };
          }
          const int id =
              g.add(tag("Cr", p, d), OpCategory::kGemm, StreamKind::kCompute,
                    {d}, cost.gemm_seconds(flops, er) / compute_scale_,
                    std::move(deps), std::move(fn),
                    cost.gemm_efficiency(er));
          if (ctx.functional()) {
            sim::Op& op = g.op(id);
            op.reads.push_back(
                sim::access_rows(tdi_buffer(ctx, d, p), 0, rows));
            op.writes.push_back(
                sim::access_rows(tm_buffer(ctx, d, p), 0, rows));
            declare_expert_param_reads(
                op, (*refs.experts)[static_cast<std::size_t>(d)],
                /*ffn1=*/true, /*ffn2=*/false);
          }
          rs_tm[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
              id;
        } else {
          // Prefetch T_M from host (S1, S2).
          const std::uint64_t bytes = quantized_bytes(rows, H, dt);
          std::function<void()> fn;
          if (ctx.functional()) {
            auto* c = &ctx;
            auto* st = &staging_;
            fn = [c, st, p, d] {
              prefetch_rows(*st, d, staging_key("tm", p),
                            tm_buffer(*c, d, p));
            };
          }
          const int id =
              g.add(tag("Dtm", p, d), OpCategory::kMemcpyH2D,
                    StreamKind::kMem, {d}, cost.memcpy_seconds(bytes, d),
                    std::move(deps), std::move(fn));
          if (ctx.functional()) {
            sim::Op& op = g.op(id);
            op.reads.push_back(sim::access_token(
                staging_.slot_token(d, staging_key("tm", p))));
            op.writes.push_back(
                sim::access_rows(tm_buffer(ctx, d, p), 0, rows));
          }
          rs_tm[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
              id;
        }
      }
    }

    // ---- Cb_p: expert backward (4 GEMMs) --------------------------------
    for (int d = 0; d < P; ++d) {
      std::vector<int> deps = {sb[static_cast<std::size_t>(p)]};
      if (ctx.reuse()) {
        deps.push_back(rs_tdi[static_cast<std::size_t>(p)]
                             [static_cast<std::size_t>(d)]);
        deps.push_back(rs_tm[static_cast<std::size_t>(p)]
                            [static_cast<std::size_t>(d)]);
        if (p >= 2) {
          // WAR: d_TDI ring slot reused from p-2, read by R'_{p-2}.
          deps.push_back(rb[static_cast<std::size_t>(p - 2)]);
        }
      }
      const std::int64_t rows = recv_rows(ctx, p, d);
      const std::uint64_t flops = 4 * gemm_flops(rows, H, M);
      const std::int64_t er = eff_rows(ctx, rows);
      std::function<void()> fn;
      if (ctx.functional()) {
        auto* c = &ctx;
        auto* experts = refs.experts;
        fn = [c, experts, p, d] {
          const auto& spans_of =
              c->plan.part(p).expert_spans[static_cast<std::size_t>(d)];
          for (std::size_t k = 0; k < spans_of.size(); ++k) {
            (*experts)[static_cast<std::size_t>(d)][k].backward_rows(
                d_tdo_buffer(*c, d, p), tdi_buffer(*c, d, p),
                tm_buffer(*c, d, p), spans_of[k], d_tdi_buffer(*c, d, p));
          }
        };
      }
      const int id =
          g.add(tag("Cb", p, d), OpCategory::kGemm, StreamKind::kCompute,
                {d}, cost.gemm_seconds(flops, er) / compute_scale_,
                std::move(deps), std::move(fn),
                cost.gemm_efficiency(er));
      if (ctx.functional()) {
        sim::Op& op = g.op(id);
        op.reads.push_back(
            sim::access_rows(d_tdo_buffer(ctx, d, p), 0, rows));
        op.reads.push_back(sim::access_rows(tdi_buffer(ctx, d, p), 0, rows));
        op.reads.push_back(sim::access_rows(tm_buffer(ctx, d, p), 0, rows));
        op.writes.push_back(
            sim::access_rows(d_tdi_buffer(ctx, d, p), 0, rows));
        auto& experts = (*refs.experts)[static_cast<std::size_t>(d)];
        declare_expert_param_reads(op, experts, /*ffn1=*/true,
                                   /*ffn2=*/true);
        declare_expert_grad_accum(op, experts);
      }
      cb[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] = id;
    }

    // ---- R'_{p-1}: gradient combine back to dX ---------------------------
    auto emit_grad_combine = [&](int q) {
      std::vector<int> deps;
      for (int d = 0; d < P; ++d) {
        deps.push_back(cb[static_cast<std::size_t>(q)]
                         [static_cast<std::size_t>(d)]);
      }
      if (ctx.functional()) {
        auto segments = combine_segments(ctx, q, true);
        ctx.comm_payload_bytes += comm::max_bytes_sent(segments, dt);
        rb[static_cast<std::size_t>(q)] =
            comm::alltoall(g, group_, std::move(segments), tag("R'", q),
                           std::move(deps), dt);
      } else {
        const std::uint64_t payload = dispatch_payload_bytes(ctx, q);
        ctx.comm_payload_bytes += payload;
        rb[static_cast<std::size_t>(q)] = comm::alltoall_timed(
            g, group_, payload, tag("R'", q), std::move(deps));
      }
      apply_comm_scale(g, rb[static_cast<std::size_t>(q)]);
    };
    if (p >= 1) emit_grad_combine(p - 1);
    if (p == n - 1) emit_grad_combine(n - 1);
  }

  // ---- gating backward + data-parallel gradient sync -------------------
  std::vector<int> gb(static_cast<std::size_t>(P), -1);
  for (int d = 0; d < P; ++d) {
    std::vector<int> deps = rb;  // dX rows must all be written
    for (int p = 0; p < n; ++p) {
      deps.push_back(bs[static_cast<std::size_t>(p)]
                       [static_cast<std::size_t>(d)]);
    }
    const std::uint64_t flops = 2 * gemm_flops(B, E, M);
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
        g.add(tag("Gb", 0, d), OpCategory::kGemm, StreamKind::kCompute, {d},
              cost.gemm_seconds(flops, std::max<std::int64_t>(B, 1)) / compute_scale_,
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

  // Gating weights are replicated data-parallel; sync their gradients.
  const std::uint64_t gate_bytes =
      static_cast<std::uint64_t>(M) * E * sizeof(float);
  if (ctx.functional()) {
    std::vector<Tensor*> grads;
    for (int d = 0; d < P; ++d) {
      grads.push_back(
          &(*refs.gates)[static_cast<std::size_t>(d)].weight_grad());
    }
    comm::allreduce_sum(g, group_, std::move(grads), "ARg", gb);
  } else {
    g.add("ARg", OpCategory::kAllReduce, StreamKind::kComm,
          group_.devices(),
          group_.size() > 1
              ? cost.allreduce_seconds(gate_bytes, group_.devices())
              : 0.0,
          gb, nullptr);
  }
  return g;
}

}  // namespace mpipe::core
