#include "mem/buffer_pool.h"

#include "common/check.h"

namespace mpipe::mem {

BufferPool::BufferPool(DeviceAllocator* allocator,
                       const std::vector<std::int64_t>& slot_rows,
                       std::int64_t cols, Category category, bool materialize,
                       DType account_dtype) {
  MPIPE_EXPECTS(!slot_rows.empty(), "pool depth must be >= 1");
  slots_.reserve(slot_rows.size());
  try {
    for (std::int64_t rows : slot_rows) {
      const Shape shape{rows, cols};
      if (allocator != nullptr) {
        slots_.push_back(allocator->alloc_tensor(shape, category, materialize,
                                                 account_dtype));
      } else {
        slots_.emplace_back();
        if (materialize) slots_.back().tensor = Tensor(shape);
      }
    }
  } catch (...) {
    // Mid-acquisition failure (real or injected OOM): release the
    // partially-acquired slots before the error escapes, so the tracker
    // balance returns to its pre-construction value. The slot vector's
    // Allocation handles would unwind anyway; clearing here makes the
    // guarantee explicit and independent of member-destruction order.
    slots_.clear();
    throw;
  }
}

Tensor& BufferPool::slot(int index) {
  MPIPE_EXPECTS(index >= 0, "negative partition index");
  Tensor& t = slots_[static_cast<std::size_t>(slot_id(index))].tensor;
  MPIPE_EXPECTS(t.defined(), "slot access on accounting-only pool");
  return t;
}

int BufferPool::slot_id(int index) const { return index % depth(); }

bool BufferPool::aliases(int a, int b) const {
  return slot_id(a) == slot_id(b);
}

std::uint64_t BufferPool::bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : slots_) total += s.allocation.bytes();
  return total;
}

}  // namespace mpipe::mem
