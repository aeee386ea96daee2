#pragma once
/// \file execution_context.h
/// Per-step state of one MoE layer execution: the dispatch plan, all
/// device-resident buffers (with memory accounting), and the backward
/// stash. Owned by MoELayer across forward() → backward(); the schedule
/// builder reads and wires it into OpGraph closures.

#include <optional>
#include <vector>

#include "core/reuse_strategy.h"
#include "mem/buffer_pool.h"
#include "mem/device_allocator.h"
#include "moe/dispatcher.h"
#include "moe/gating.h"
#include "tensor/dtype.h"

namespace mpipe::core {

enum class ExecutionMode {
  kFull,        ///< real math + timing (small configs, tests, examples)
  kTimingOnly,  ///< schedule + memory accounting at paper scale
};

/// Per-device step state.
struct DeviceStepState {
  // ---- forward ----
  Tensor x;                    ///< T_I (B, M); borrowed from the caller
  mem::Allocation x_alloc;     ///< activation accounting for T_I
  Tensor out;                  ///< T_O (B, M)
  mem::Allocation out_alloc;
  moe::GatingForward gating;   ///< routing decisions (full mode)
  mem::Allocation gating_alloc;  ///< the (B, E) router probs — the "small
                                 ///< tensors" the paper's theory ignores
  /// The schedule's step-scoped model state (ScheduleBuilder::
  /// step_model_state_bytes), e.g. FasterMoE's shadowed expert replicas.
  mem::Allocation step_model_state_alloc;

  // Per-partition buffers: rings shared across partitions with memory
  // reuse (paper Fig 6), one stashed slot per partition without.
  std::optional<mem::BufferPool> tdi, tm, tdo;

  // ---- backward ----
  Tensor dy;  ///< borrowed upstream gradient
  std::optional<mem::BufferPool> d_ys, d_tdo, d_tm, d_tdi;
  Tensor dx;                  ///< input gradient returned to the caller
  mem::Allocation dx_alloc;
  std::vector<float> dgate;   ///< per-token gate gradient accumulator
};

struct MoeStepContext {
  ExecutionMode mode = ExecutionMode::kFull;
  ReuseStrategy strategy = ReuseStrategy::kNone;
  moe::DispatchPlan plan;
  std::int64_t d_model = 0;
  std::int64_t d_hidden = 0;
  /// Wire/storage format of expert weights and dispatch/combine payloads
  /// (MoELayerOptions::compute_dtype). kF32 is the exact legacy path.
  DType dtype = DType::kF32;
  /// Sum over every AllToAll emitted for this step of the bytes its
  /// busiest participant sends, counted in `dtype`'s wire format —
  /// accumulated at graph-build time, surfaced as
  /// StepReport::alltoall_payload_bytes (the Fig-10 payload axis).
  std::uint64_t comm_payload_bytes = 0;
  /// Inference step: no backward will ever consume this context, so the
  /// schedule builder emits no offload ops (nothing needs restoring) and
  /// the ring slots are plain working memory, not a backward stash. The
  /// forward math is identical either way — the flag only removes the
  /// D2H traffic and host-staging residency a training forward pays to
  /// keep its activations restorable.
  bool forward_only = false;
  std::vector<DeviceStepState> dev;

  int n() const { return plan.n_partitions; }
  int num_devices() const { return plan.num_devices; }
  bool reuse() const { return strategy != ReuseStrategy::kNone; }
  bool functional() const { return mode == ExecutionMode::kFull; }
};

}  // namespace mpipe::core
