#pragma once
/// \file moe_layer.h
/// The MPipeMoE public API — the C++ analogue of the paper's
/// `pmoe.MoELayer(d_model=…, d_hidden=…, top_k=1, num_experts=…,
/// pipeline=True, memory_reuse=True)`. One MoELayer object models the MoE
/// FFN of a transformer block running under expert parallelism on a
/// simulated cluster: forward()/backward() do real tensor math with a
/// simulated timeline, step_timing() replays the schedule at paper scale.
///
/// MoELayer is the one layer runtime: every schedule — MPipeMoE's
/// micro-batch pipeline (the default) or a baseline such as FasterMoE's
/// split-by-N P2P pipeline — is a ScheduleBuilder handed to the
/// constructor, and the layer's step drivers are shared by all of them.

#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/execution_context.h"
#include "core/granularity_search.h"
#include "core/pipeline_schedule.h"
#include "core/step_report.h"
#include "mem/host_staging.h"
#include "sim/cluster.h"

namespace mpipe::core {

struct MoELayerOptions {
  std::int64_t d_model = 1024;
  std::int64_t d_hidden = 4096;
  int num_experts = 64;  ///< must be a multiple of the device count;
                         ///< gating is top-1, as in the paper
  moe::ActivationKind activation = moe::ActivationKind::kReLU;

  /// Enable micro-batch pipelining. false forces a single partition and
  /// serial execution, which frees each gradient tensor as soon as the
  /// next is produced: the backward's temp-buffer peak follows Eq 3
  /// (BM + BH) instead of the pipeline's per-partition residency. The
  /// FastMoE and FasterMoE baselines run this way.
  bool pipeline = true;
  /// Fixed partition count; 0 enables the Algorithm-1 adaptive search.
  int num_partitions = 0;
  /// Candidate search space for the adaptive search.
  std::vector<int> candidate_partitions = {1, 2, 4, 8, 16};

  /// Enable the ring-buffer memory reuse of §III-D.
  bool memory_reuse = true;
  /// Fixed restore strategy; unset ranks S1–S4 with the corrected probes
  /// that rank n (Eq-10, core::StrategySelector, is the analytic model).
  std::optional<ReuseStrategy> strategy{};

  /// Per-device memory capacity in bytes (0 = unlimited).
  std::uint64_t device_capacity_bytes = 0;

  /// Wire/storage format of the expert hot path. kF32 (default) is the
  /// exact legacy path — bitwise identical results. kBF16 / kI8 store the
  /// expert weights quantized (fp32 masters kept for the optimizer and
  /// weight-grad GEMMs) and round every dispatch/combine payload and
  /// activation offload through the reduced wire format; all GEMMs
  /// dequantize at pack time and accumulate in fp32. Halves (bf16) or
  /// quarters (int8, plus one fp32 scale per row) the AllToAll payload
  /// bytes and the offload/staging residency. The router (gating GEMM and
  /// its gradient allreduce) always stays fp32.
  DType compute_dtype = DType::kF32;

  /// Effective compute-throughput multiplier (< 1 models the baselines'
  /// CUDA-core kernels; PipeMoE/MPipeMoE use Tensor Cores at 1.0).
  double compute_scale = 1.0;

  /// Effective collective-bandwidth multiplier (< 1 models AllToAll
  /// implemented as grouped per-pair send/recv, as in FastMoE).
  double comm_scale = 1.0;

  /// Run the functional op graphs concurrently on the shared ThreadPool
  /// (sim::ExecutionPolicy::kParallel): independent partitions'/devices'
  /// dispatch, expert GEMMs, combine and offload ops genuinely overlap,
  /// with the hazard validator proving every schedule race-free first.
  /// false keeps the serial topological reference order. Both modes
  /// produce bitwise identical results for any pool size.
  bool parallel_execution = false;

  /// Record per-op wall-clock timestamps while forward()/backward()
  /// execute (either policy) and fill StepReport's measured timeline and
  /// simulated-vs-measured diff. Off by default: the executors then skip
  /// recording entirely (one pointer test per op) and the outputs stay
  /// bitwise identical either way.
  bool profile_execution = false;

  /// Additionally serialise each profiled step's measured-vs-simulated
  /// chrome trace into StepReport::forward/backward_trace_json. Separate
  /// from profile_execution because the JSON is pure inspection output —
  /// the correction loop needs only the diffs, and most profiled steps
  /// would build strings nobody reads. No effect when profiling is off.
  bool trace_execution = false;

  /// Straggler watchdog: after a profiled step, flag any op whose measured
  /// wall-clock duration exceeds this multiple of its normalized modeled
  /// duration (sim::detect_stragglers) into StepReport::stragglers.
  /// <= 0 (default) disables the watchdog; it only observes profiled steps
  /// (profile_execution), and never alters execution or results.
  double straggler_threshold = 0.0;

  ExecutionMode mode = ExecutionMode::kFull;
  std::uint64_t seed = 42;
};

/// The partition counts a layer can run: {1} without pipelining,
/// {num_partitions} when fixed, else candidate_partitions.
std::vector<int> partition_candidates(const MoELayerOptions& options);

class MoELayer {
 public:
  /// `schedule` builds the step graphs; null selects MPipeMoE's
  /// PipelineScheduleBuilder (scaled by options.compute_scale/comm_scale).
  MoELayer(sim::Cluster& cluster, MoELayerOptions options,
           std::unique_ptr<ScheduleBuilder> schedule = nullptr);
  /// Baselines (FastMoE, FasterMoE) are MoELayer subclasses that only fix
  /// the options and schedule. Not copyable or movable: the schedule
  /// builder and the granularity searcher hold references into the layer.
  virtual ~MoELayer() = default;
  MoELayer(const MoELayer&) = delete;
  MoELayer& operator=(const MoELayer&) = delete;

  // ---- full-mode training step -------------------------------------------
  /// Runs the distributed forward pass on one (B, M) token batch per
  /// device. Returns the per-device (B, M) outputs.
  std::vector<Tensor> forward(const std::vector<Tensor>& inputs);

  /// Runs the backward pass from per-device output gradients; returns the
  /// per-device input gradients. Must follow a forward() call.
  std::vector<Tensor> backward(const std::vector<Tensor>& grad_outputs);

  // ---- forward-only inference step ----------------------------------------
  /// The serving tier's step: identical math and output to forward(), but
  /// no backward may follow — so nothing is kept restorable. No activation
  /// stashes (ring buffers are used for working memory regardless of the
  /// configured strategy), no offload ops, no host-staging residency, no
  /// kTempBuffer allocations; all per-step state is released before
  /// returning. `n_override` > 0 pins the partition count (the SLO
  /// selector's choice); 0 falls back to configure_partitions. Per-step
  /// timing/profiling lands in last_report() with backward fields empty.
  std::vector<Tensor> forward_only(const std::vector<Tensor>& inputs,
                                   int n_override = 0);

  /// Modeled forward-only latency (seconds) of a step with
  /// `tokens_per_device` balanced-routed tokens split into n partitions —
  /// a timing-shape probe through the same corrected cost model the
  /// granularity search uses, but for the inference graph (no offloads, no
  /// backward). The serving SLO selector ranks its batch-size ladder with
  /// this.
  double probe_forward_seconds(std::int64_t tokens_per_device, int n);

  // ---- timing-only step at paper scale -------------------------------------
  /// Simulates one training step (fwd+bwd) with `tokens_per_device` tokens
  /// and synthetic balanced routing (optionally skewed toward device 0).
  StepReport step_timing(std::int64_t tokens_per_device, double skew = 0.0);

  // ---- measured-vs-modeled loop --------------------------------------------
  /// Toggles wall-clock profiling after construction (CorrectionWarmup
  /// flips it on for its warmup steps).
  void set_profile_execution(bool on) { options_.profile_execution = on; }

  /// Toggles chrome-trace serialisation of profiled steps (runtime::
  /// Trainer has it on for the warmup step whose trace it dumps).
  void set_trace_execution(bool on) { options_.trace_execution = on; }

  /// Installs measured per-op-class correction factors (fitted from
  /// profiled steps, sim::CorrectionFit) that scale the op costs of the
  /// probes ranking n and the strategy. Changing them flushes every cached
  /// (n, strategy) verdict. StepReport's simulated timings stay
  /// uncorrected — the model-error baseline the factors are fitted against.
  void set_corrections(const sim::OpClassCorrections& corrections);
  const sim::OpClassCorrections& corrections() const { return corrections_; }

  // ---- introspection --------------------------------------------------------
  const StepReport& last_report() const { return report_; }
  GranularitySearcher& searcher() { return *searcher_; }
  mem::DeviceAllocator& allocator(int device);
  mem::HostStaging& staging() { return staging_; }
  sim::Cluster& cluster() { return *cluster_; }
  int num_devices() const;
  int experts_per_device() const;
  const MoELayerOptions& options() const { return options_; }

  // ---- mixed precision ------------------------------------------------------
  /// Re-quantizes every expert's weight caches from the fp32 masters.
  /// Must run after each optimizer step and checkpoint restore when
  /// compute_dtype != kF32 (runtime::Trainer does); no-op for kF32.
  void refresh_quantized_weights();

  /// Accounted bytes of the quantized expert-weight copies on the busiest
  /// device (0 for kF32) — the Fig-9 weight-memory axis per dtype.
  std::uint64_t expert_weight_bytes() const;

  // ---- parameters (full mode) ----------------------------------------------
  /// All trainable tensors across devices (gating + experts), paired with
  /// gradients() index-for-index — what runtime::Adam consumes.
  std::vector<Tensor*> parameters();
  std::vector<Tensor*> gradients();
  void zero_grad();
  moe::GatingNetwork& gate(int device);
  moe::ExpertFFN& expert(int device, int local_index);

 private:
  sim::ExecutionPolicy exec_policy() const {
    return options_.parallel_execution ? sim::ExecutionPolicy::kParallel
                                       : sim::ExecutionPolicy::kSerial;
  }
  int configure_partitions(std::int64_t tokens_per_device);
  /// S1–S4 if reuse is on, n > 1 and none is pinned; else the pinned or kNone.
  std::vector<ReuseStrategy> strategy_candidates(int n) const;
  ReuseStrategy configure_strategy(std::int64_t tokens_per_device, int n);
  /// The searcher's trial: the memoised cheapest probe over the candidates.
  struct Ranking {
    ReuseStrategy strategy = ReuseStrategy::kNone;
    double seconds = std::numeric_limits<double>::infinity();
  };
  Ranking rank_strategies(std::int64_t tokens_per_device, int n);
  void flush_rankings();  ///< the searcher's verdicts and rankings_
  /// Corrected timing-only probe of one (B, n, strategy) training step.
  double probe_step_seconds(std::int64_t tokens_per_device, int n,
                            ReuseStrategy strategy);
  /// Timing-only step context over a synthetic balanced (optionally
  /// skewed) plan — shared by step_timing and the probes.
  MoeStepContext timing_context(std::int64_t tokens_per_device, int n,
                                ReuseStrategy strategy, double skew) const;
  /// Makespan of a timing-only probe graph after the installed
  /// per-op-class corrections.
  double corrected_seconds(sim::OpGraph graph) const;
  /// forward() and forward_only(): one functional forward step. An
  /// `inference` step keeps nothing for a backward and releases its state
  /// before returning.
  std::vector<Tensor> forward_step(const std::vector<Tensor>& inputs,
                                   bool inference, int n_override);
  /// Resets report_ for a new step with its configuration fields.
  void start_report(int n, ReuseStrategy strategy);
  /// Runs one step graph and fills its half of report_: the simulated
  /// timing (functional steps: executed, plus the measured timeline,
  /// diff, stragglers and trace when profiling), then the utilisation and
  /// per-category memory peaks of the step so far.
  void run_step_graph(const MoeStepContext& ctx, const sim::OpGraph& graph,
                      bool backward);
  /// Account and back one step's buffers. Functional steps take the pool
  /// slots from forward_slots_ / backward_slots_; `out` and `dx` outlive
  /// the step in the caller's hands, so they get fresh storage.
  void setup_forward_buffers(MoeStepContext& ctx);
  void setup_backward_buffers(MoeStepContext& ctx);
  LayerRefs refs();

  sim::Cluster* cluster_;
  MoELayerOptions options_;
  comm::ProcessGroup world_;
  std::deque<mem::DeviceAllocator> allocators_;
  mem::HostStaging staging_;
  /// Host storage of the forward's and the backward's pool slots on every
  /// device, kept across steps.
  mem::SlotStorage forward_slots_, backward_slots_;
  std::unique_ptr<ScheduleBuilder> builder_;

  // Parameters (full mode only; timing-only keeps accounting records).
  std::vector<moe::GatingNetwork> gates_;
  std::vector<std::vector<moe::ExpertFFN>> experts_;
  std::vector<mem::Allocation> model_state_allocs_;

  std::unique_ptr<GranularitySearcher> searcher_;
  double probe_skew_ = 0.0;
  std::map<std::pair<std::int64_t, int>, Ranking> rankings_;
  sim::OpClassCorrections corrections_;
  std::optional<MoeStepContext> ctx_;
  StepReport report_;
};

/// Scoped override of a layer's profile_execution / trace_execution
/// switches: snapshots both on entry, sets them to the given values, and
/// restores the snapshot on every exit — normal return or exception — so a
/// warmup step that throws cannot leave profiling stuck on.
class ProfileOverrideScope {
 public:
  ProfileOverrideScope(MoELayer& layer, bool profile, bool trace)
      : layer_(&layer),
        profile_(layer.options().profile_execution),
        trace_(layer.options().trace_execution) {
    layer.set_profile_execution(profile);
    layer.set_trace_execution(trace);
  }
  ~ProfileOverrideScope() {
    layer_->set_profile_execution(profile_);
    layer_->set_trace_execution(trace_);
  }
  ProfileOverrideScope(const ProfileOverrideScope&) = delete;
  ProfileOverrideScope& operator=(const ProfileOverrideScope&) = delete;

 private:
  MoELayer* layer_;
  bool profile_;
  bool trace_;
};

/// The measured-vs-modeled warmup shared by runtime::Trainer and
/// serve::Server: the first `budget` profiled step reports feed a
/// sim::CorrectionFit, and the report that completes the budget fits the
/// per-op-class factors and installs them with MoELayer::set_corrections,
/// so every later (n, strategy) ranking uses reality-corrected costs. The
/// layer holds the only copy of the factors.
class CorrectionWarmup {
 public:
  /// `budget` profiled reports to fit from; 0 disables the warmup.
  explicit CorrectionWarmup(int budget);

  /// True while reports still feed the fit.
  bool active() const { return !installed_ && reports() < budget_; }
  /// True once the fit ran and the layer re-ranks with it.
  bool installed() const { return installed_; }

  /// One step's profiling override, restored when the returned scope
  /// ends: profiling is on while the warmup is active and `otherwise`
  /// after it. With `trace_last`, the step whose report will complete the
  /// warmup also serialises its chrome traces.
  ProfileOverrideScope profile_step(MoELayer& layer, bool otherwise,
                                    bool trace_last = false) const;

  /// Feeds a finished step's report; reports outside the warmup and
  /// unprofiled ones are ignored. Returns true exactly when this report
  /// completed the warmup and the fitted factors were installed.
  bool observe(MoELayer& layer, const StepReport& report);

  /// Checkpoint state: the fit's accumulators and the installed flag.
  struct State {
    sim::CorrectionFit::State fit;
    bool installed = false;
  };
  State state() const { return {fit_.state(), installed_}; }
  void set_state(const State& state);

 private:
  /// Each report adds its forward and its backward diff (empty for a
  /// forward_only step), so the fit counts two diffs per report: the
  /// budget needs no counter of its own, and a restored fit restores it.
  int reports() const { return fit_.steps() / 2; }

  int budget_;
  sim::CorrectionFit fit_;
  bool installed_ = false;
};

}  // namespace mpipe::core
