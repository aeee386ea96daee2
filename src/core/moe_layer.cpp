#include "core/moe_layer.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/logging.h"
#include "sim/trace.h"

namespace mpipe::core {

namespace {

/// Accounted bytes of one device's quantized W1/W2 side copies (0 for
/// kF32, where the fp32 masters are the compute weights).
std::uint64_t quantized_expert_bytes(const MoELayerOptions& options,
                                     int experts_per_device) {
  if (options.compute_dtype == DType::kF32) return 0;
  return static_cast<std::uint64_t>(experts_per_device) *
         (quantized_bytes(options.d_model, options.d_hidden,
                          options.compute_dtype) +
          quantized_bytes(options.d_hidden, options.d_model,
                          options.compute_dtype));
}

std::uint64_t model_state_bytes(const MoELayerOptions& options,
                                int experts_per_device) {
  // Parameters held by one device: replicated gating (E*M) plus the local
  // experts (2*M*H + H + M each). Adam keeps 4 copies (params, grads,
  // momentum, variance). The quantized side copies the forward path reads
  // live next to the fp32 masters (which the optimizer still owns).
  const std::uint64_t params =
      static_cast<std::uint64_t>(options.num_experts) * options.d_model +
      static_cast<std::uint64_t>(experts_per_device) *
          (2ull * options.d_model * options.d_hidden + options.d_hidden +
           options.d_model);
  return 4ull * params * sizeof(float) +
         quantized_expert_bytes(options, experts_per_device);
}

/// Strategy of a forward_only step. It is moot for inference: no backward
/// means nothing to restore, and the forward_only flag already strips every
/// offload op. kS4 (pure re-comm/recompute) is the honest label — its
/// forward never stashes — and it turns the ring buffers on, so working
/// memory is the paper's 2·cap·M + cap·H rings instead of n per-partition
/// activation stashes.
ReuseStrategy inference_strategy(const MoELayerOptions& options) {
  return options.memory_reuse ? ReuseStrategy::kS4 : ReuseStrategy::kNone;
}

/// Slot rows of device d's per-partition buffers. With memory reuse a
/// ring of `depth` slots at the device's own worst partition, not the
/// cluster-wide maximum — under routing skew only the hot device pays.
/// Without reuse one slot per partition at that partition's rows.
std::vector<std::int64_t> slot_rows(const MoeStepContext& ctx, int d,
                                    int depth) {
  std::vector<std::int64_t> rows;
  for (int p = 0; p < ctx.n(); ++p) {
    rows.push_back(std::max<std::int64_t>(
        1, ctx.plan.part(p).recv_rows[static_cast<std::size_t>(d)]));
  }
  if (!ctx.reuse()) return rows;
  const std::int64_t worst = *std::max_element(rows.begin(), rows.end());
  return std::vector<std::int64_t>(static_cast<std::size_t>(depth), worst);
}

std::int64_t total_rows(const std::vector<std::int64_t>& rows) {
  return std::accumulate(rows.begin(), rows.end(), std::int64_t{0});
}

/// Reads the per-category peaks of one device allocator.
MemorySnapshot snapshot_peaks(const mem::DeviceAllocator& allocator) {
  const auto& t = allocator.tracker();
  MemorySnapshot s;
  s.model_states = t.peak(mem::Category::kModelState);
  s.activations = t.peak(mem::Category::kActivation);
  s.temp_buffers = t.peak(mem::Category::kTempBuffer);
  s.comm = t.peak(mem::Category::kComm);
  s.total_peak = t.peak_total();
  return s;
}

/// Element-wise max over devices — the footprint of the busiest device,
/// which is what "peak memory" means on a real cluster.
MemorySnapshot max_over_devices(const std::vector<MemorySnapshot>& snaps) {
  MemorySnapshot out;
  for (const MemorySnapshot& s : snaps) {
    out.model_states = std::max(out.model_states, s.model_states);
    out.activations = std::max(out.activations, s.activations);
    out.temp_buffers = std::max(out.temp_buffers, s.temp_buffers);
    out.comm = std::max(out.comm, s.comm);
    out.total_peak = std::max(out.total_peak, s.total_peak);
  }
  return out;
}

/// Combines fwd+bwd utilisation: total useful compute over total makespan.
double combined_utilization(const sim::TimingResult& fwd,
                            const sim::TimingResult& bwd) {
  const double total_time = fwd.makespan + bwd.makespan;
  if (total_time <= 0.0 || fwd.weighted_compute.empty()) return 0.0;
  double useful = 0.0;
  for (std::size_t d = 0; d < fwd.weighted_compute.size(); ++d) {
    useful += fwd.weighted_compute[d];
    if (d < bwd.weighted_compute.size()) useful += bwd.weighted_compute[d];
  }
  useful /= static_cast<double>(fwd.weighted_compute.size());
  return useful / total_time;
}

}  // namespace

std::vector<int> partition_candidates(const MoELayerOptions& options) {
  if (!options.pipeline) return {1};
  if (options.num_partitions > 0) return {options.num_partitions};
  return options.candidate_partitions;
}

MoELayer::MoELayer(sim::Cluster& cluster, MoELayerOptions options,
                   std::unique_ptr<ScheduleBuilder> schedule)
    : cluster_(&cluster),
      options_(std::move(options)),
      world_(comm::ProcessGroup::world(cluster)),
      builder_(schedule ? std::move(schedule)
                        : std::make_unique<PipelineScheduleBuilder>(
                              world_, staging_, options_.compute_scale,
                              options_.comm_scale)) {
  MPIPE_EXPECTS(options_.d_model > 0 && options_.d_hidden > 0,
                "bad layer dimensions");
  const int P = cluster.num_devices();
  MPIPE_EXPECTS(options_.num_experts % P == 0,
                "num_experts must be a multiple of the device count");
  MPIPE_EXPECTS(options_.num_partitions >= 0, "negative partition count");

  const int epd = options_.num_experts / P;
  for (int d = 0; d < P; ++d) {
    allocators_.emplace_back(d, options_.device_capacity_bytes);
    model_state_allocs_.push_back(allocators_.back().allocate(
        mem::Category::kModelState, model_state_bytes(options_, epd)));
  }
  // Fault-injection wiring happens after the model-state allocations:
  // injected OOM targets step-time buffer acquisition (the recoverable
  // case), not layer construction, and step allocations then consume the
  // injector's key sequence from 0 — deterministic across runs.
  if (auto injector = cluster.fault_injector_shared()) {
    for (auto& a : allocators_) a.set_fault_injector(injector);
  }

  if (options_.mode == ExecutionMode::kFull) {
    Rng master(options_.seed);
    // The gating network is replicated data-parallel: every device starts
    // from identical weights (same derived seed).
    Rng gate_rng = master.fork();
    for (int d = 0; d < P; ++d) {
      Rng replica = gate_rng;  // copy: identical weights on every device
      gates_.emplace_back(options_.d_model, options_.num_experts, replica);
    }
    experts_.resize(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      for (int k = 0; k < epd; ++k) {
        Rng expert_rng = master.fork();
        experts_[static_cast<std::size_t>(d)].emplace_back(
            options_.d_model, options_.d_hidden, options_.activation,
            expert_rng);
        experts_[static_cast<std::size_t>(d)].back().set_compute_dtype(
            options_.compute_dtype);
      }
    }
  }

  searcher_ = std::make_unique<GranularitySearcher>(
      options_.candidate_partitions, [this](std::int64_t b, int n) {
        return rank_strategies(b, n).seconds;
      });
}

mem::DeviceAllocator& MoELayer::allocator(int device) {
  MPIPE_EXPECTS(device >= 0 && device < num_devices(),
                "device out of range");
  return allocators_[static_cast<std::size_t>(device)];
}

int MoELayer::num_devices() const { return cluster_->num_devices(); }

int MoELayer::experts_per_device() const {
  return options_.num_experts / num_devices();
}

moe::GatingNetwork& MoELayer::gate(int device) {
  MPIPE_EXPECTS(!gates_.empty(), "no parameters in timing-only mode");
  return gates_[static_cast<std::size_t>(device)];
}

moe::ExpertFFN& MoELayer::expert(int device, int local_index) {
  MPIPE_EXPECTS(!experts_.empty(), "no parameters in timing-only mode");
  return experts_[static_cast<std::size_t>(device)]
                 [static_cast<std::size_t>(local_index)];
}

LayerRefs MoELayer::refs() {
  LayerRefs r;
  if (options_.mode == ExecutionMode::kFull) {
    r.gates = &gates_;
    r.experts = &experts_;
  }
  return r;
}

int MoELayer::configure_partitions(std::int64_t tokens_per_device) {
  const std::vector<int> candidates = partition_candidates(options_);
  if (candidates.size() == 1) return candidates.front();
  return searcher_->configure(tokens_per_device);
}

void MoELayer::set_corrections(const sim::OpClassCorrections& corrections) {
  MPIPE_EXPECTS(corrections.compute > 0.0 && corrections.comm > 0.0 &&
                    corrections.memcpy > 0.0,
                "correction factors must be positive");
  if (corrections.compute == corrections_.compute &&
      corrections.comm == corrections_.comm &&
      corrections.memcpy == corrections_.memcpy) {
    return;  // unchanged landscape: cached search verdicts stay valid
  }
  corrections_ = corrections;
  flush_rankings();
}

void MoELayer::flush_rankings() {
  searcher_->invalidate();
  rankings_.clear();
}

std::vector<ReuseStrategy> MoELayer::strategy_candidates(int n) const {
  if (!options_.memory_reuse || n <= 1) return {ReuseStrategy::kNone};
  if (options_.strategy.has_value()) return {*options_.strategy};
  return {ReuseStrategy::kS1, ReuseStrategy::kS2, ReuseStrategy::kS3,
          ReuseStrategy::kS4};
}

ReuseStrategy MoELayer::configure_strategy(std::int64_t tokens_per_device,
                                           int n) {
  const std::vector<ReuseStrategy> candidates = strategy_candidates(n);
  if (candidates.size() == 1) return candidates.front();  // no probe
  return rank_strategies(tokens_per_device, n).strategy;
}

MoELayer::Ranking MoELayer::rank_strategies(std::int64_t tokens_per_device,
                                            int n) {
  auto [it, fresh] = rankings_.try_emplace({tokens_per_device, n});
  Ranking& best = it->second;
  if (!fresh) return best;
  for (ReuseStrategy s : strategy_candidates(n)) {
    const double t = probe_step_seconds(tokens_per_device, n, s);
    if (t < best.seconds) best = {s, t};
  }
  return best;
}

MoeStepContext MoELayer::timing_context(std::int64_t tokens_per_device, int n,
                                        ReuseStrategy strategy,
                                        double skew) const {
  MoeStepContext ctx;
  ctx.mode = ExecutionMode::kTimingOnly;
  ctx.strategy = strategy;
  ctx.d_model = options_.d_model;
  ctx.d_hidden = options_.d_hidden;
  ctx.dtype = options_.compute_dtype;
  ctx.plan = moe::Dispatcher::synthetic(tokens_per_device, num_devices(),
                                        experts_per_device(), n, skew);
  ctx.dev.resize(static_cast<std::size_t>(num_devices()));
  return ctx;
}

double MoELayer::corrected_seconds(sim::OpGraph graph) const {
  // Probes are timing-shape-only: they must never materialise tensors,
  // carry closures, or spin up the parallel executor (time_only never
  // invokes closures, and an all-timing graph keeps it that way).
  MPIPE_EXPECTS(graph.is_timing_only(), "probe built a functional graph");
  // Reality correction: scale each op class by its fitted measured/modeled
  // factor before timing, so the search ranks candidates by what profiled
  // steps say the hardware actually does (identity factors are a no-op).
  sim::apply_corrections(graph, corrections_);
  return cluster_->time_only(graph).makespan;
}

double MoELayer::probe_step_seconds(std::int64_t tokens_per_device, int n,
                                    ReuseStrategy strategy) {
  // Probes need no buffer accounting — only the schedule shape matters.
  MoeStepContext ctx =
      timing_context(tokens_per_device, n, strategy, probe_skew_);
  const double t_fwd =
      corrected_seconds(builder_->build_forward(ctx, LayerRefs{}));
  return t_fwd + corrected_seconds(builder_->build_backward(ctx, LayerRefs{}));
}

double MoELayer::probe_forward_seconds(std::int64_t tokens_per_device,
                                       int n) {
  MPIPE_EXPECTS(tokens_per_device > 0, "empty probe batch");
  MPIPE_EXPECTS(n >= 1, "probe needs at least one partition");
  // Mirror forward_only's execution shape exactly: its strategy, and the
  // forward_only flag so no offload op is ever timed.
  MoeStepContext ctx = timing_context(
      tokens_per_device, n, inference_strategy(options_), probe_skew_);
  ctx.forward_only = true;
  return corrected_seconds(builder_->build_forward(ctx, LayerRefs{}));
}

void MoELayer::setup_forward_buffers(MoeStepContext& ctx) {
  const bool mat = ctx.functional();
  const std::int64_t M = ctx.d_model;
  const std::int64_t H = ctx.d_hidden;
  const std::int64_t B = ctx.plan.tokens_per_device;
  const std::int64_t E = options_.num_experts;
  const int depth = std::min(2, ctx.n());
  const auto act = mem::Category::kActivation;
  const std::uint64_t schedule_bytes = builder_->step_model_state_bytes(ctx);
  if (mat) {
    // Every device's T_DI, T_M and T_DO slots, as laid out below.
    std::int64_t floats = 0;
    for (int d = 0; d < ctx.num_devices(); ++d) {
      floats += 2 * total_rows(slot_rows(ctx, d, depth)) * M +
                total_rows(slot_rows(ctx, d, 1)) * H;
    }
    forward_slots_.begin(floats);
  }

  for (int d = 0; d < ctx.num_devices(); ++d) {
    auto& st = ctx.dev[static_cast<std::size_t>(d)];
    auto& alloc = allocator(d);
    // T_I is caller-owned but device-resident: account it.
    st.x_alloc = alloc.allocate(
        act, static_cast<std::uint64_t>(B) * M * sizeof(float));
    auto out = alloc.alloc_tensor(Shape{B, M}, act, mat);
    st.out = out.tensor;
    st.out_alloc = std::move(out.allocation);
    // Router probabilities — the "small tensors" of Fig 10's gap.
    st.gating_alloc = alloc.allocate(
        act, static_cast<std::uint64_t>(B) * E * sizeof(float));

    // The T_DI / T_DO payload buffers hold dispatch/combine wire rows: a
    // real device stores them in ctx.dtype, so they are accounted at the
    // quantized size. T_M is the fp32-accumulating FFN intermediate and
    // stays full width; its ring has one slot.
    const auto rows = slot_rows(ctx, d, depth);
    st.tdi.emplace(&alloc, rows, M, act, mat, ctx.dtype, &forward_slots_);
    st.tm.emplace(&alloc, slot_rows(ctx, d, 1), H, act, mat, DType::kF32,
                  &forward_slots_);
    st.tdo.emplace(&alloc, rows, M, act, mat, ctx.dtype, &forward_slots_);
    if (schedule_bytes > 0) {
      st.step_model_state_alloc =
          alloc.allocate(mem::Category::kModelState, schedule_bytes);
    }
  }
}

void MoELayer::setup_backward_buffers(MoeStepContext& ctx) {
  const bool mat = ctx.functional();
  const std::int64_t M = ctx.d_model;
  const std::int64_t H = ctx.d_hidden;
  const std::int64_t B = ctx.plan.tokens_per_device;
  const int depth = std::min(2, ctx.n());
  const auto temp = mem::Category::kTempBuffer;
  // The gate-scaled gradient staging is written for every partition
  // up-front (before the reversed pipeline drains it), so it keeps one slot
  // per partition; with reuse every slot takes partition 0's rows, and with
  // the dx buffer this reproduces the paper's post-saving temp footprint
  // 2BM + 4BM/n + BH/n exactly.
  std::vector<std::int64_t> chunk_rows;
  for (int p = 0; p < ctx.n(); ++p) {
    chunk_rows.push_back(std::max<std::int64_t>(
        1, ctx.plan.part(ctx.reuse() ? 0 : p).chunk_rows));
  }
  if (mat) {
    // Every device's d_ys, d_T_DO and d_T_DI slots, as laid out below.
    std::int64_t floats = 0;
    for (int d = 0; d < ctx.num_devices(); ++d) {
      floats +=
          (total_rows(chunk_rows) + 2 * total_rows(slot_rows(ctx, d, depth))) *
          M;
    }
    backward_slots_.begin(floats);
  }

  for (int d = 0; d < ctx.num_devices(); ++d) {
    auto& st = ctx.dev[static_cast<std::size_t>(d)];
    auto& alloc = allocator(d);
    auto dx = alloc.alloc_tensor(Shape{B, M}, temp, mat);
    st.dx = dx.tensor;
    st.dx_alloc = std::move(dx.allocation);
    st.dgate.assign(static_cast<std::size_t>(B), 0.0f);

    // Without pipelining (one partition, no reuse) execution is serial and
    // frees each gradient tensor as soon as the next one is produced; only
    // two adjacent tensors coexist (Eq 3: BM + BH). Register that peak
    // (the temporary allocation is released at once) and keep the gradient
    // scratch untracked.
    mem::DeviceAllocator* tracked = &alloc;
    if (!options_.pipeline) {
      alloc.allocate(temp, static_cast<std::uint64_t>(B) * (M + H) *
                               sizeof(float));
      tracked = nullptr;
    }
    st.d_ys.emplace(tracked, chunk_rows, M, temp, mat, DType::kF32,
                    &backward_slots_);
    // d_T_DO / d_T_DI carry gradient wire payloads (received from S' /
    // shipped by R'), so — like T_DI / T_DO — they are accounted in
    // ctx.dtype. d_ys and d_T_M stay fp32 (local accumulation).
    const auto rows = slot_rows(ctx, d, depth);
    st.d_tdo.emplace(tracked, rows, M, temp, mat, ctx.dtype,
                     &backward_slots_);
    // The d_T_M gradients live inside the fused expert-backward kernel;
    // the buffer is accounted (Eq 5) but never addressed.
    st.d_tm.emplace(tracked, slot_rows(ctx, d, 1), H, temp,
                    /*materialize=*/false);
    st.d_tdi.emplace(tracked, rows, M, temp, mat, ctx.dtype,
                     &backward_slots_);
  }
}

std::vector<Tensor> MoELayer::forward(const std::vector<Tensor>& inputs) {
  return forward_step(inputs, /*inference=*/false, /*n_override=*/0);
}

std::vector<Tensor> MoELayer::forward_only(const std::vector<Tensor>& inputs,
                                           int n_override) {
  MPIPE_EXPECTS(n_override >= 0, "negative partition override");
  return forward_step(inputs, /*inference=*/true, n_override);
}

std::vector<Tensor> MoELayer::forward_step(const std::vector<Tensor>& inputs,
                                           bool inference, int n_override) {
  MPIPE_EXPECTS(options_.mode == ExecutionMode::kFull,
                "forward()/forward_only() require full execution mode");
  MPIPE_EXPECTS(static_cast<int>(inputs.size()) == num_devices(),
                "need one input batch per device");
  const std::int64_t B = inputs[0].dim(0);
  for (const Tensor& t : inputs) {
    MPIPE_EXPECTS(t.shape().rank() == 2 && t.dim(0) == B &&
                      t.dim(1) == options_.d_model,
                  "inputs must all be (B, d_model)");
  }
  for (auto& a : allocators_) a.tracker().reset_peaks();
  // A training forward whose backward never ran left its offloads staged.
  staging_.clear();

  const int n = n_override > 0 ? n_override : configure_partitions(B);
  const ReuseStrategy strategy = inference ? inference_strategy(options_)
                                           : configure_strategy(B, n);

  // Everything from here on allocates step state (ctx_ buffers, staging
  // slots) and runs the graph; a failure part-way — injected OOM, a comm
  // TransientError that exhausted its retries, a payload-scan detection —
  // must not leave that state resident, or every subsequent step inherits
  // the leak. The catch releases it and rethrows, leaving the layer ready
  // for a retried step (or the server's replayed batch).
  try {
    ctx_.emplace();
    ctx_->mode = ExecutionMode::kFull;
    ctx_->strategy = strategy;
    ctx_->forward_only = inference;
    ctx_->d_model = options_.d_model;
    ctx_->d_hidden = options_.d_hidden;
    ctx_->dtype = options_.compute_dtype;
    ctx_->dev.resize(static_cast<std::size_t>(num_devices()));

    // Gating runs first (the plan depends on it); the graph still carries
    // a timed router op per device.
    std::vector<std::vector<std::int64_t>> expert_of;
    for (int d = 0; d < num_devices(); ++d) {
      auto& st = ctx_->dev[static_cast<std::size_t>(d)];
      st.x = inputs[static_cast<std::size_t>(d)];
      st.gating = gates_[static_cast<std::size_t>(d)].forward(st.x);
      expert_of.push_back(st.gating.expert_of);
    }
    ctx_->plan = moe::Dispatcher::build(expert_of, num_devices(),
                                        experts_per_device(), n);
    setup_forward_buffers(*ctx_);

    start_report(n, strategy);
    run_step_graph(*ctx_, builder_->build_forward(*ctx_, refs()),
                   /*backward=*/false);

    std::vector<Tensor> outputs;
    outputs.reserve(static_cast<std::size_t>(num_devices()));
    for (int d = 0; d < num_devices(); ++d) {
      outputs.push_back(ctx_->dev[static_cast<std::size_t>(d)].out);
    }
    if (inference) {
      // Nothing stashed for a backward: the step state dies here. The
      // outputs survive via the Tensor's shared storage; a backward() call
      // now fails its has-context precondition, exactly as intended.
      ctx_.reset();
    }
    return outputs;
  } catch (...) {
    ctx_.reset();
    staging_.clear();
    throw;
  }
}

void MoELayer::start_report(int n, ReuseStrategy strategy) {
  report_ = StepReport{};
  report_.n_partitions = n;
  report_.strategy = strategy;
  report_.compute_dtype = options_.compute_dtype;
  report_.expert_weight_bytes = expert_weight_bytes();
}

void MoELayer::run_step_graph(const MoeStepContext& ctx,
                              const sim::OpGraph& graph, bool backward) {
  sim::TimingResult& timing =
      backward ? report_.backward_timing : report_.forward_timing;
  if (!ctx.functional()) {
    MPIPE_EXPECTS(graph.is_timing_only(),
                  "timing-only step built a functional graph");
    timing = cluster_->time_only(graph);
  } else {
    sim::ExecutionProfile profile;
    sim::ExecutionProfile* sink =
        options_.profile_execution ? &profile : nullptr;
    timing = cluster_->run(graph, exec_policy(), sink);
    if (sink) {
      report_.profiled = true;
      sim::MeasuredTimeline& measured =
          backward ? report_.backward_measured : report_.forward_measured;
      sim::ScheduleDiff& diff =
          backward ? report_.backward_diff : report_.forward_diff;
      measured = sim::build_timeline(graph, profile, num_devices());
      diff = sim::diff_schedules(graph, timing, measured);
      if (options_.straggler_threshold > 0.0) {
        auto flags = sim::detect_stragglers(graph, diff,
                                            options_.straggler_threshold);
        report_.stragglers.insert(report_.stragglers.end(), flags.begin(),
                                  flags.end());
      }
      if (options_.trace_execution) {
        (backward ? report_.backward_trace_json
                  : report_.forward_trace_json) =
            sim::to_chrome_trace(graph, timing, measured);
      }
    }
  }
  (backward ? report_.backward_seconds : report_.forward_seconds) =
      timing.makespan;
  // The backward graph's AllToAlls accumulate onto the forward's counter.
  report_.alltoall_payload_bytes = ctx.comm_payload_bytes;
  report_.mean_gpu_utilization =
      combined_utilization(report_.forward_timing, report_.backward_timing);
  std::vector<MemorySnapshot> snaps;
  for (const auto& a : allocators_) snaps.push_back(snapshot_peaks(a));
  report_.memory = max_over_devices(snaps);
}

std::vector<Tensor> MoELayer::backward(
    const std::vector<Tensor>& grad_outputs) {
  MPIPE_EXPECTS(ctx_.has_value(), "backward() without a prior forward()");
  MPIPE_EXPECTS(static_cast<int>(grad_outputs.size()) == num_devices(),
                "need one gradient per device");
  for (int d = 0; d < num_devices(); ++d) {
    auto& st = ctx_->dev[static_cast<std::size_t>(d)];
    MPIPE_EXPECTS(grad_outputs[static_cast<std::size_t>(d)].shape() ==
                      st.out.shape(),
                  "gradient shape mismatch");
    st.dy = grad_outputs[static_cast<std::size_t>(d)];
  }
  // Same failure contract as forward(): a part-way failure releases all
  // step state before rethrowing so a retried step starts clean.
  try {
    setup_backward_buffers(*ctx_);
    run_step_graph(*ctx_, builder_->build_backward(*ctx_, refs()),
                   /*backward=*/true);

    std::vector<Tensor> grads;
    grads.reserve(static_cast<std::size_t>(num_devices()));
    for (int d = 0; d < num_devices(); ++d) {
      grads.push_back(ctx_->dev[static_cast<std::size_t>(d)].dx);
    }
    ctx_.reset();  // releases activations and temp buffers
    return grads;
  } catch (...) {
    ctx_.reset();
    staging_.clear();
    throw;
  }
}

StepReport MoELayer::step_timing(std::int64_t tokens_per_device,
                                 double skew) {
  MPIPE_EXPECTS(tokens_per_device > 0, "empty batch");
  for (auto& a : allocators_) a.tracker().reset_peaks();

  // Probes see the step's routing skew; verdicts ranked at another are stale.
  if (skew != probe_skew_) {
    probe_skew_ = skew;
    flush_rankings();
  }
  const int n = configure_partitions(tokens_per_device);
  const ReuseStrategy strategy = configure_strategy(tokens_per_device, n);

  MoeStepContext ctx = timing_context(tokens_per_device, n, strategy, skew);
  setup_forward_buffers(ctx);
  start_report(n, strategy);
  run_step_graph(ctx, builder_->build_forward(ctx, LayerRefs{}),
                 /*backward=*/false);
  setup_backward_buffers(ctx);
  run_step_graph(ctx, builder_->build_backward(ctx, LayerRefs{}),
                 /*backward=*/true);
  return report_;
}

void MoELayer::refresh_quantized_weights() {
  if (options_.compute_dtype == DType::kF32) return;
  for (auto& device_experts : experts_) {
    for (auto& expert : device_experts) expert.refresh_quantized();
  }
}

std::uint64_t MoELayer::expert_weight_bytes() const {
  if (options_.mode != ExecutionMode::kFull) {
    // Timing-only layers hold no tensors; report the accounted size.
    return quantized_expert_bytes(options_, experts_per_device());
  }
  std::uint64_t peak = 0;
  for (const auto& device_experts : experts_) {
    std::uint64_t device_bytes = 0;
    for (const auto& expert : device_experts) {
      device_bytes += expert.quantized_weight_bytes();
    }
    peak = std::max(peak, device_bytes);
  }
  return peak;
}

std::vector<Tensor*> MoELayer::parameters() {
  std::vector<Tensor*> out;
  for (auto& gate : gates_) out.push_back(&gate.weight());
  for (auto& device_experts : experts_) {
    for (auto& expert : device_experts) {
      for (Tensor* p : expert.parameters()) out.push_back(p);
    }
  }
  return out;
}

std::vector<Tensor*> MoELayer::gradients() {
  std::vector<Tensor*> out;
  for (auto& gate : gates_) out.push_back(&gate.weight_grad());
  for (auto& device_experts : experts_) {
    for (auto& expert : device_experts) {
      for (Tensor* g : expert.gradients()) out.push_back(g);
    }
  }
  return out;
}

void MoELayer::zero_grad() {
  for (auto& gate : gates_) gate.zero_grad();
  for (auto& device_experts : experts_) {
    for (auto& expert : device_experts) expert.zero_grad();
  }
}

CorrectionWarmup::CorrectionWarmup(int budget) : budget_(budget) {
  MPIPE_EXPECTS(budget >= 0, "negative correction warmup budget");
}

ProfileOverrideScope CorrectionWarmup::profile_step(MoELayer& layer,
                                                    bool otherwise,
                                                    bool trace_last) const {
  const bool last = active() && reports() + 1 >= budget_;
  return ProfileOverrideScope(
      layer, active() || otherwise,
      (trace_last && last) || layer.options().trace_execution);
}

bool CorrectionWarmup::observe(MoELayer& layer, const StepReport& report) {
  if (!active() || !report.profiled) return false;
  fit_.add(report.forward_diff);
  fit_.add(report.backward_diff);
  if (reports() < budget_) return false;
  layer.set_corrections(fit_.fit());
  installed_ = true;
  return true;
}

void CorrectionWarmup::set_state(const State& state) {
  fit_.set_state(state.fit);
  installed_ = state.installed;
}

}  // namespace mpipe::core
