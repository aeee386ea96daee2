#include "mem/buffer_pool.h"

#include "common/check.h"

namespace mpipe::mem {

void SlotStorage::begin(std::int64_t floats) {
  MPIPE_EXPECTS(floats >= 0, "negative slot layout");
  if (!buffer_.defined() || buffer_.dim(0) < floats) {
    buffer_ = Tensor();  // free the old buffer before allocating the new
    buffer_ = Tensor(Shape{floats, 1});
  }
  size_ = floats;
  used_ = 0;
}

Tensor SlotStorage::take(std::int64_t rows, std::int64_t cols) {
  MPIPE_EXPECTS(rows >= 0 && cols > 0, "bad slot shape");
  MPIPE_EXPECTS(used_ + rows * cols <= size_,
                "slot layout larger than SlotStorage::begin declared");
  Tensor block = buffer_.view_rows(used_, used_ + rows * cols);
  used_ += rows * cols;
  return block.reshape(Shape{rows, cols});
}

BufferPool::BufferPool(DeviceAllocator* allocator,
                       const std::vector<std::int64_t>& slot_rows,
                       std::int64_t cols, Category category, bool materialize,
                       DType account_dtype, SlotStorage* storage) {
  MPIPE_EXPECTS(!slot_rows.empty(), "pool depth must be >= 1");
  slots_.reserve(slot_rows.size());
  try {
    for (std::int64_t rows : slot_rows) {
      const Shape shape{rows, cols};
      TrackedTensor& slot = slots_.emplace_back();
      if (allocator != nullptr) {
        slot.allocation = allocator->allocate(
            category, accounted_bytes(shape, account_dtype));
      }
      if (materialize) {
        slot.tensor =
            storage != nullptr ? storage->take(rows, cols) : Tensor(shape);
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
