#pragma once
/// \file buffer_pool.h
/// The per-partition step buffers of the paper's memory-reusing scheme
/// (§III-D, Fig 6): partition p of T_DI / T_M / T_DO (and their gradients)
/// lives in physical slot p % depth. With memory reuse a pool is a ring of
/// `depth` slots sized for the device's worst partition, reducing the
/// footprint from m to depth·(m/n); without reuse it stashes one slot per
/// partition at that partition's rows. Slot reuse introduces WAR hazards
/// between partitions; the pipeline scheduler turns prior readers into
/// dependencies of the next writer (tests/test_schedule_invariants.cpp
/// asserts this).
///
/// A pool does two jobs with two lifetimes. Its device accounting is per
/// step: each slot holds a DeviceAllocator::allocate record for exactly
/// the bytes a fresh tensor of its shape would account, released with the
/// pool. Its host storage can outlive the step: a pool given a SlotStorage
/// hands out views of it, so a steady-state step allocates and zero-fills
/// no slot. Slots are then not zeroed: every op writes a slot's rows
/// before it reads them.

#include <cstdint>
#include <vector>

#include "mem/device_allocator.h"
#include "tensor/tensor.h"

namespace mpipe::mem {

/// Host storage behind BufferPool slots that persists across steps: one
/// flat buffer holding, back to back, the slots of every pool that one
/// buffer setup lays out (say, all devices' T_DI / T_M / T_DO). It grows to
/// the largest layout it has served and is never shrunk, like HostStaging's
/// slots; since the devices' receive rows sum to the step's tokens, that is
/// the layout of the step with the most tokens. Use it only while step
/// buffers are set up (single-threaded, before the graph runs).
class SlotStorage {
 public:
  /// Starts a layout of `floats` floats, reallocating the buffer first if
  /// it is smaller. The previous layout's views must be dead: the new one
  /// reuses their memory.
  void begin(std::int64_t floats);

  /// The layout's next (rows, cols) block as a view. Rows kept from an
  /// earlier step are not cleared.
  Tensor take(std::int64_t rows, std::int64_t cols);

 private:
  Tensor buffer_;  ///< (capacity, 1)
  std::int64_t size_ = 0;  ///< floats of the current layout
  std::int64_t used_ = 0;
};

class BufferPool {
 public:
  /// One (slot_rows[i], cols) slot per entry of `slot_rows`, accounted on
  /// `allocator` under `category`; a null allocator keeps the slots
  /// untracked (scratch whose footprint the caller accounts otherwise).
  /// With materialize = false the slots are accounting-only (timing-only
  /// mode). `account_dtype` accounts each slot at its wire-format size
  /// (accounted_bytes) — used for the dispatch/combine payload buffers,
  /// whose rows a real device stores in the reduced dtype. Materialized
  /// slots are taken from `storage`'s current layout when given, else
  /// fresh zeroed tensors.
  BufferPool(DeviceAllocator* allocator,
             const std::vector<std::int64_t>& slot_rows, std::int64_t cols,
             Category category, bool materialize = true,
             DType account_dtype = DType::kF32,
             SlotStorage* storage = nullptr);

  /// Slot backing partition `index` (index % depth).
  Tensor& slot(int index);

  /// Physical slot id for a partition index.
  int slot_id(int index) const;

  /// True when partitions a and b share the same physical slot.
  bool aliases(int a, int b) const;

  int depth() const { return static_cast<int>(slots_.size()); }
  std::uint64_t bytes() const;

 private:
  std::vector<TrackedTensor> slots_;
};

}  // namespace mpipe::mem
