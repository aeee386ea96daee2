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

#include <cstdint>
#include <vector>

#include "mem/device_allocator.h"
#include "tensor/tensor.h"

namespace mpipe::mem {

class BufferPool {
 public:
  /// One (slot_rows[i], cols) slot per entry of `slot_rows`, accounted on
  /// `allocator` under `category`; a null allocator keeps the slots
  /// untracked (scratch whose footprint the caller accounts otherwise).
  /// With materialize = false the slots are accounting-only (timing-only
  /// mode). `account_dtype` accounts each slot at its wire-format size
  /// (DeviceAllocator::alloc_tensor) — used for the dispatch/combine
  /// payload buffers, whose rows a real device stores in the reduced dtype.
  BufferPool(DeviceAllocator* allocator,
             const std::vector<std::int64_t>& slot_rows, std::int64_t cols,
             Category category, bool materialize = true,
             DType account_dtype = DType::kF32);

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
