#include "baselines/fastermoe.h"

#include <algorithm>

#include "comm/p2p.h"
#include "common/check.h"
#include "core/schedule_ops.h"

namespace mpipe::baselines {

using core::ExpertStage;
using core::MoeStepContext;
using sim::OpCategory;
using sim::StreamKind;

namespace {

std::string tag(const char* name, int j) {
  return std::string(name) + std::to_string(j);
}

/// A segment table split by endpoints: [src device][dst device].
using PairTable = std::vector<std::vector<std::vector<comm::RowSegment>>>;

PairTable by_pair(const MoeStepContext& ctx,
                  std::vector<comm::RowSegment> segments) {
  const auto P = static_cast<std::size_t>(ctx.num_devices());
  PairTable table(P, std::vector<std::vector<comm::RowSegment>>(P));
  for (auto& seg : segments) {
    table[static_cast<std::size_t>(seg.src_device)]
         [static_cast<std::size_t>(seg.dst_device)]
             .push_back(seg);
  }
  return table;
}

/// The P2P fragments between expert holder j and each peer, in peer
/// order: gathers (peer → j) or scatters (j → peer), labelled
/// `name`j.s<peer> / `name`j.d<peer>. A shadowed j exchanges only with
/// itself (its peers computed its tokens locally), and a peer routing no
/// tokens to j is skipped. A functional fragment moves the pair's
/// segments (a pair without any is skipped); a timing-only one is charged
/// for the pair's fp32 rows. Returns (peer, op id) per fragment.
std::vector<std::pair<int, int>> exchange(
    sim::OpGraph& g, const MoeStepContext& ctx,
    const comm::ProcessGroup& world, PairTable& table, bool gather, int j,
    const ShadowingDecision& shadow, const char* name,
    const std::function<std::vector<int>(int peer)>& deps) {
  const auto& part = ctx.plan.part(0);
  std::vector<std::pair<int, int>> out;
  for (int peer = 0; peer < ctx.num_devices(); ++peer) {
    if (shadow.is_shadowed(j) && peer != j) continue;
    const std::int64_t count =
        part.src[static_cast<std::size_t>(peer)]
            .send_counts[static_cast<std::size_t>(j)];
    if (count == 0 && peer != j) continue;
    const int src = gather ? peer : j;
    const int dst = gather ? j : peer;
    std::string label =
        tag(name, j) + (gather ? ".s" : ".d") + std::to_string(peer);
    int id = -1;
    if (ctx.functional()) {
      auto& segs = table[static_cast<std::size_t>(src)]
                        [static_cast<std::size_t>(dst)];
      if (segs.empty()) continue;
      id = comm::send_recv_multi(g, world, std::move(segs), std::move(label),
                                 deps(peer));
    } else {
      id = comm::send_recv_timed(
          g, world, src, dst,
          static_cast<std::uint64_t>(count) * ctx.d_model * sizeof(float),
          std::move(label), deps(peer));
    }
    out.emplace_back(peer, id);
  }
  return out;
}

core::MoELayerOptions faster_options(core::MoELayerOptions options) {
  MPIPE_EXPECTS(options.compute_dtype == DType::kF32,
                "FasterMoE's P2P fragments move fp32 rows");
  return unpipelined_options(std::move(options), "FasterMoE");
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
  const ShadowingDecision shadow = shadowing_for(ctx);

  sim::OpGraph g;
  core::OpEmitter ops(g, ctx, refs, world_, compute_scale_);

  std::vector<int> gate_ops(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    gate_ops[static_cast<std::size_t>(d)] = ops.router(tag("G", d), d);
  }

  // Parameter broadcast for shadowed experts.
  std::vector<int> bcast_ops;
  if (!shadow.shadowed.empty()) {
    // Only the hot expert is replicated, not the destination's whole set.
    const std::uint64_t bytes =
        shadow_bytes_per_destination(ctx.d_model, ctx.d_hidden, 1) /
        2;  // params only, fwd
    for (int j : shadow.shadowed) {
      bcast_ops.push_back(g.add(
          tag("Bcast", j), OpCategory::kBroadcast, StreamKind::kComm,
          world_.devices(),
          cost.broadcast_seconds(bytes, world_.devices()), gate_ops,
          nullptr));
    }
  }

  PairTable gathers, scatters;
  if (ctx.functional()) {
    gathers = by_pair(ctx, core::dispatch_segments(ctx, 0));
    scatters = by_pair(ctx, core::combine_segments(ctx, 0, false));
  }
  std::vector<std::vector<int>> gather_ops(static_cast<std::size_t>(P));
  std::vector<int> c_ops(static_cast<std::size_t>(P), -1);
  // Per home device: scatter fragments writing into its T_O.
  std::vector<std::vector<int>> arrivals(static_cast<std::size_t>(P));

  // Enqueue all gathers first so later destinations' receives are not
  // trapped behind earlier scatter arrivals in the receiver FIFO; computes
  // start as their gathers drain, scatters trail the computes.
  for (int j = 0; j < P; ++j) {
    for (auto [src, id] : exchange(g, ctx, world_, gathers, true, j, shadow,
                                   "Gth", [&](int) { return gate_ops; })) {
      gather_ops[static_cast<std::size_t>(j)].push_back(id);
    }
  }
  for (int j = 0; j < P; ++j) {
    std::vector<int> deps = gather_ops[static_cast<std::size_t>(j)];
    deps.insert(deps.end(), bcast_ops.begin(), bcast_ops.end());
    c_ops[static_cast<std::size_t>(j)] = ops.expert(
        ExpertStage::kFused, tag("C", j), 0, j,
        std::max<std::int64_t>(1, compute_rows(ctx, j, shadow)),
        std::move(deps));
  }
  for (int j = 0; j < P; ++j) {
    const std::vector<int> deps = {c_ops[static_cast<std::size_t>(j)]};
    for (auto [dst, id] : exchange(g, ctx, world_, scatters, false, j, shadow,
                                   "Sct", [&](int) { return deps; })) {
      arrivals[static_cast<std::size_t>(dst)].push_back(id);
    }
  }

  // Gate scaling at home devices.
  for (int d = 0; d < P; ++d) {
    ops.gate_scale(tag("scale", d), 0, d,
                   arrivals[static_cast<std::size_t>(d)]);
  }
  return g;
}

sim::OpGraph FasterMoEScheduleBuilder::build_backward(
    MoeStepContext& ctx, const core::LayerRefs& refs) const {
  const auto& cost = world_.cluster().cost_model();
  const int P = ctx.num_devices();
  const ShadowingDecision shadow = shadowing_for(ctx);

  sim::OpGraph g;
  core::OpEmitter ops(g, ctx, refs, world_, compute_scale_);

  // Gradient scaling + dgate, per home device.
  std::vector<int> bs(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    bs[static_cast<std::size_t>(d)] =
        ops.gate_scale_backward(tag("bscale", d), 0, d, {});
  }

  PairTable gathers, scatters;
  if (ctx.functional()) {
    gathers = by_pair(ctx, core::grad_dispatch_segments(ctx, 0));
    scatters = by_pair(ctx, core::combine_segments(ctx, 0, true));
  }
  std::vector<std::vector<int>> gather_ops(static_cast<std::size_t>(P));
  std::vector<int> c_ops(static_cast<std::size_t>(P), -1);
  std::vector<std::vector<int>> arrivals(static_cast<std::size_t>(P));

  // Same phase ordering as forward: all gradient gathers, then expert
  // backwards, then the gradient scatters home.
  for (int j = 0; j < P; ++j) {
    for (auto [src, id] :
         exchange(g, ctx, world_, gathers, true, j, shadow, "Gth'",
                  [&](int src_device) {
                    return std::vector<int>{
                        bs[static_cast<std::size_t>(src_device)]};
                  })) {
      gather_ops[static_cast<std::size_t>(j)].push_back(id);
    }
  }
  for (int j = 0; j < P; ++j) {
    c_ops[static_cast<std::size_t>(j)] = ops.expert(
        ExpertStage::kBackward, tag("Cb", j), 0, j,
        std::max<std::int64_t>(1, compute_rows(ctx, j, shadow)),
        gather_ops[static_cast<std::size_t>(j)]);
  }
  for (int j = 0; j < P; ++j) {
    const std::vector<int> deps = {c_ops[static_cast<std::size_t>(j)]};
    for (auto [dst, id] : exchange(g, ctx, world_, scatters, false, j, shadow,
                                   "Sct'", [&](int) { return deps; })) {
      arrivals[static_cast<std::size_t>(dst)].push_back(id);
    }
  }

  // Shadowed experts trained on several devices need a gradient sync.
  if (!shadow.shadowed.empty()) {
    const std::uint64_t bytes =
        shadow_bytes_per_destination(ctx.d_model, ctx.d_hidden, 1) /
        2;  // gradients
    for (int j : shadow.shadowed) {
      g.add(tag("ARshadow", j), OpCategory::kAllReduce, StreamKind::kComm,
            world_.devices(),
            cost.allreduce_seconds(bytes, world_.devices()), c_ops, nullptr);
    }
  }

  // Gating backward + gradient sync.
  std::vector<int> gb(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    std::vector<int> deps = arrivals[static_cast<std::size_t>(d)];
    deps.push_back(bs[static_cast<std::size_t>(d)]);
    gb[static_cast<std::size_t>(d)] =
        ops.router_backward(tag("Gb", d), d, std::move(deps));
  }
  ops.gate_grad_sync(std::move(gb));
  return g;
}

FasterMoELayer::FasterMoELayer(sim::Cluster& cluster,
                               core::MoELayerOptions options,
                               ShadowingConfig shadowing)
    : core::MoELayer(cluster, faster_options(std::move(options)),
                     std::make_unique<FasterMoEScheduleBuilder>(
                         cluster, kCudaCoreComputeScale, shadowing)) {}

}  // namespace mpipe::baselines
