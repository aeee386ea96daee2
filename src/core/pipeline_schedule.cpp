#include "core/pipeline_schedule.h"

#include <algorithm>

#include "common/check.h"
#include "core/schedule_ops.h"

namespace mpipe::core {

namespace {

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

/// Op ids per [partition][device], -1 where none was emitted.
using Grid = std::vector<std::vector<int>>;
Grid grid(int n, int P) {
  return Grid(static_cast<std::size_t>(n),
              std::vector<int>(static_cast<std::size_t>(P), -1));
}
int at(const Grid& ops, int p, int d) {
  return ops[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)];
}
/// Partition p's ops on every device.
std::vector<int> row(const Grid& ops, int p) {
  return ops[static_cast<std::size_t>(p)];
}

/// Max bytes any device ships in partition p's dispatch, counted in
/// ctx.dtype's wire format (dtype-width elements plus int8 row scales) —
/// the timing-only AllToAll payload (also correct for combine, which is
/// symmetric).
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

/// One AllToAll of partition p: over the segment table `segments()` in a
/// functional step, over the partition's dispatch payload in a
/// timing-only one. Either way its payload is charged to the context and
/// its duration slowed by 1/comm_scale.
template <class Segments>
int alltoall(sim::OpGraph& g, MoeStepContext& ctx,
             const comm::ProcessGroup& group, double comm_scale,
             std::string label, int p, std::vector<int> deps,
             Segments segments) {
  int id = -1;
  if (ctx.functional()) {
    auto table = segments();
    ctx.comm_payload_bytes += comm::max_bytes_sent(table, ctx.dtype);
    id = comm::alltoall(g, group, std::move(table), std::move(label),
                        std::move(deps), ctx.dtype);
  } else {
    const std::uint64_t payload = dispatch_payload_bytes(ctx, p);
    ctx.comm_payload_bytes += payload;
    id = comm::alltoall_timed(g, group, payload, std::move(label),
                              std::move(deps));
  }
  if (comm_scale != 1.0) g.op(id).base_seconds /= comm_scale;
  return id;
}

}  // namespace

PipelineScheduleBuilder::PipelineScheduleBuilder(const sim::Cluster& cluster,
                                                 double compute_scale,
                                                 double comm_scale)
    : world_(comm::ProcessGroup::world(cluster)),
      compute_scale_(compute_scale),
      comm_scale_(comm_scale) {
  MPIPE_EXPECTS(compute_scale > 0.0, "compute scale must be positive");
  MPIPE_EXPECTS(comm_scale > 0.0, "comm scale must be positive");
}

sim::OpGraph PipelineScheduleBuilder::build_forward(
    MoeStepContext& ctx, const LayerRefs& refs) const {
  const int P = ctx.num_devices();
  const int n = ctx.n();
  // Forward-only steps never restore, so they never offload: the serving
  // tier's forward graph is a training forward minus every Htdi/Htm op,
  // whatever the strategy says about how a backward *would* restore.
  const bool offload_tdi = ctx.reuse() && !ctx.forward_only &&
                           !restores_tdi_by_comm(ctx.strategy);
  const bool offload_tm = ctx.reuse() && !ctx.forward_only &&
                          !restores_tm_by_recompute(ctx.strategy);

  sim::OpGraph g;
  OpEmitter ops(g, ctx, refs, world_, compute_scale_);
  auto a2a = [&](const char* name, int p, std::vector<int> deps,
                 auto segments) {
    return alltoall(g, ctx, world_, comm_scale_, tag(name, p), p,
                    std::move(deps), segments);
  };

  // Gating: one router GEMM per device.
  std::vector<int> gate_ops(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    gate_ops[static_cast<std::size_t>(d)] = ops.router(tag("G", 0, d), d);
  }

  std::vector<int> s_ops(static_cast<std::size_t>(n), -1);
  std::vector<int> r_ops(static_cast<std::size_t>(n), -1);
  Grid c1 = grid(n, P), c2 = grid(n, P), od_tdi = grid(n, P),
       od_tm = grid(n, P);

  auto emit_combine = [&](int q) {
    r_ops[static_cast<std::size_t>(q)] = a2a("R", q, row(c2, q), [&] {
      return combine_segments(ctx, q, false);
    });
  };

  for (int p = 0; p < n; ++p) {
    // ---- S_p: dispatch AllToAll --------------------------------------
    std::vector<int> s_deps = gate_ops;
    if (ctx.reuse() && p >= 2) {
      // WAR: the T_DI ring slot is reused from partition p-2; all of its
      // readers (C1 and the offload copy) must have finished.
      for (int d = 0; d < P; ++d) {
        s_deps.push_back(at(c1, p - 2, d));
        if (offload_tdi) s_deps.push_back(at(od_tdi, p - 2, d));
      }
    }
    s_ops[static_cast<std::size_t>(p)] = a2a("S", p, std::move(s_deps), [&] {
      return dispatch_segments(ctx, p);
    });

    // ---- offload T_DI (S1, S3) ---------------------------------------
    if (offload_tdi) {
      for (int d = 0; d < P; ++d) {
        od_tdi[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
            ops.offload(Stash::kTdi, tag("Htdi", p, d), p, d,
                        {s_ops[static_cast<std::size_t>(p)]});
      }
    }

    // ---- C1_p: FFN1 ----------------------------------------------------
    for (int d = 0; d < P; ++d) {
      std::vector<int> deps = {s_ops[static_cast<std::size_t>(p)]};
      if (ctx.reuse() && p >= 1) {
        // WAR: the single T_M slot is reused every partition.
        deps.push_back(at(c2, p - 1, d));
        if (offload_tm) deps.push_back(at(od_tm, p - 1, d));
      }
      c1[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
          ops.expert(ExpertStage::kFfn1, tag("C1_", p, d), p, d,
                     recv_rows(ctx, p, d), std::move(deps));
    }

    // ---- offload T_M (S1, S2) ------------------------------------------
    if (offload_tm) {
      for (int d = 0; d < P; ++d) {
        od_tm[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
            ops.offload(Stash::kTm, tag("Htm", p, d), p, d,
                        {at(c1, p, d)});
      }
    }

    // ---- C2_p: FFN2 ----------------------------------------------------
    for (int d = 0; d < P; ++d) {
      std::vector<int> deps = {at(c1, p, d)};
      if (ctx.reuse() && p >= 2) {
        // WAR: T_DO ring slot reused from p-2, read by R_{p-2}.
        deps.push_back(r_ops[static_cast<std::size_t>(p - 2)]);
      }
      c2[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
          ops.expert(ExpertStage::kFfn2, tag("C2_", p, d), p, d,
                     recv_rows(ctx, p, d), std::move(deps));
    }

    // ---- R_{p-1}: combine, alternating with S on the comm stream -------
    if (p >= 1) emit_combine(p - 1);
  }
  emit_combine(n - 1);

  // ---- gate scaling: T_O rows *= gate, deferred to the comp tail so it
  // cannot head-of-line block later C1/C2 ops.
  for (int p = 0; p < n; ++p) {
    for (int d = 0; d < P; ++d) {
      ops.gate_scale(tag("scale", p, d), p, d,
                     {r_ops[static_cast<std::size_t>(p)]});
    }
  }
  return g;
}

sim::OpGraph PipelineScheduleBuilder::build_backward(
    MoeStepContext& ctx, const LayerRefs& refs) const {
  const int P = ctx.num_devices();
  const int n = ctx.n();
  const bool tdi_by_comm = restores_tdi_by_comm(ctx.strategy);
  const bool tm_by_recompute = restores_tm_by_recompute(ctx.strategy);

  sim::OpGraph g;
  OpEmitter ops(g, ctx, refs, world_, compute_scale_);
  auto a2a = [&](const char* name, int p, std::vector<int> deps,
                 auto segments) {
    return alltoall(g, ctx, world_, comm_scale_, tag(name, p), p,
                    std::move(deps), segments);
  };

  Grid bs = grid(n, P), cb = grid(n, P), rs_tdi = grid(n, P),
       rs_tm = grid(n, P);
  std::vector<int> sb(static_cast<std::size_t>(n), -1);
  std::vector<int> rb(static_cast<std::size_t>(n), -1);

  // ---- per-partition gradient scaling + dgate accumulation ------------
  for (int p = 0; p < n; ++p) {
    for (int d = 0; d < P; ++d) {
      bs[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
          ops.gate_scale_backward(tag("bscale", p, d), p, d, {});
    }
  }

  for (int p = 0; p < n; ++p) {
    // ---- S'_p: gradient dispatch ----------------------------------------
    std::vector<int> s_deps = row(bs, p);
    if (ctx.reuse() && p >= 2) {
      // WAR: d_TDO ring slot reused from p-2, read by Cb_{p-2}.
      for (int d = 0; d < P; ++d) s_deps.push_back(at(cb, p - 2, d));
    }
    sb[static_cast<std::size_t>(p)] = a2a("S'", p, std::move(s_deps), [&] {
      return grad_dispatch_segments(ctx, p);
    });

    // ---- restore T_DI / T_M (reuse strategies only) ---------------------
    if (ctx.reuse()) {
      // WAR guards for the slots being rewritten.
      std::vector<int> war_tdi, war_tm;
      if (p >= 2) {
        for (int d = 0; d < P; ++d) {
          war_tdi.push_back(at(cb, p - 2, d));
          if (tm_by_recompute) war_tdi.push_back(at(rs_tm, p - 2, d));
        }
      }
      if (p >= 1) war_tm = row(cb, p - 1);

      if (tdi_by_comm) {
        // Re-communication: replay the forward dispatch (S2, S4).
        const int rc = a2a("Sr", p, war_tdi,
                           [&] { return dispatch_segments(ctx, p); });
        rs_tdi[static_cast<std::size_t>(p)].assign(
            static_cast<std::size_t>(P), rc);
      } else {
        // Prefetch from host (S1, S3).
        for (int d = 0; d < P; ++d) {
          rs_tdi[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
              ops.prefetch(Stash::kTdi, tag("Dtdi", p, d), p, d,
                           war_tdi);
        }
      }

      for (int d = 0; d < P; ++d) {
        std::vector<int> deps = war_tm;
        int id = -1;
        if (tm_by_recompute) {
          // Recompute T_M from the restored T_DI (S3, S4).
          deps.push_back(at(rs_tdi, p, d));
          id = ops.expert(ExpertStage::kRecompute, tag("Cr", p, d), p, d,
                          recv_rows(ctx, p, d), std::move(deps));
        } else {
          // Prefetch T_M from host (S1, S2).
          id = ops.prefetch(Stash::kTm, tag("Dtm", p, d), p, d,
                            std::move(deps));
        }
        rs_tm[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] = id;
      }
    }

    // ---- Cb_p: expert backward (4 GEMMs) --------------------------------
    for (int d = 0; d < P; ++d) {
      std::vector<int> deps = {sb[static_cast<std::size_t>(p)]};
      if (ctx.reuse()) {
        deps.push_back(at(rs_tdi, p, d));
        deps.push_back(at(rs_tm, p, d));
        if (p >= 2) {
          // WAR: d_TDI ring slot reused from p-2, read by R'_{p-2}.
          deps.push_back(rb[static_cast<std::size_t>(p - 2)]);
        }
      }
      cb[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] =
          ops.expert(ExpertStage::kBackward, tag("Cb", p, d), p, d,
                     recv_rows(ctx, p, d), std::move(deps));
    }

    // ---- R'_{p-1}: gradient combine back to dX ---------------------------
    auto emit_grad_combine = [&](int q) {
      rb[static_cast<std::size_t>(q)] = a2a("R'", q, row(cb, q), [&] {
        return combine_segments(ctx, q, true);
      });
    };
    if (p >= 1) emit_grad_combine(p - 1);
    if (p == n - 1) emit_grad_combine(n - 1);
  }

  // ---- gating backward + data-parallel gradient sync -------------------
  std::vector<int> gb(static_cast<std::size_t>(P), -1);
  for (int d = 0; d < P; ++d) {
    std::vector<int> deps = rb;  // dX rows must all be written
    for (int p = 0; p < n; ++p) deps.push_back(at(bs, p, d));
    gb[static_cast<std::size_t>(d)] =
        ops.router_backward(tag("Gb", 0, d), d, std::move(deps));
  }
  // Gating weights are replicated data-parallel; sync their gradients.
  ops.gate_grad_sync(std::move(gb));
  return g;
}

}  // namespace mpipe::core
