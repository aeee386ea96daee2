#include "mem/host_staging.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/quant.h"

namespace mpipe::mem {

std::string HostStaging::Slot::name() const {
  return "device " + std::to_string(device_) +
         (what_ == Stash::kTdi ? " tdi" : " tm") + " partition " +
         std::to_string(partition_);
}

HostStaging::Slot& HostStaging::slot(int device, Stash what, int partition) {
  Slot& s = slots_[{device, what, partition}];
  s.device_ = device;
  s.what_ = what;
  s.partition_ = partition;
  return s;
}

void HostStaging::store(Slot& slot, const Tensor& src, std::int64_t rows,
                        DType dtype) {
  MPIPE_EXPECTS(src.shape().rank() == 2 && rows >= 0 && rows <= src.dim(0),
                "staged rows out of range");
  MPIPE_EXPECTS(!slot.full_, "staging collision: " + slot.name() +
                                 " is already staged — a live entry was "
                                 "about to be silently overwritten");
  const std::int64_t cols = src.dim(1);
  const auto n = static_cast<std::size_t>(rows * cols);
  if (slot.values_.size() < n) slot.values_.resize(n);
  std::copy_n(src.data(), n, slot.values_.data());
  round_through_dtype(slot.values_.data(), rows, cols, dtype);
  slot.rows_ = rows;
  slot.cols_ = cols;
  slot.bytes_ = quantized_bytes(rows, cols, dtype);
  slot.full_ = true;
  bytes_ += slot.bytes_;
  ++entries_;
}

void HostStaging::restore(Slot& slot, Tensor& dst) {
  MPIPE_EXPECTS(slot.full_, "no staged tensor for " + slot.name());
  MPIPE_EXPECTS(dst.shape().rank() == 2 && dst.dim(1) == slot.cols_ &&
                    dst.dim(0) >= slot.rows_,
                "restore target does not fit the staged rows");
  std::copy_n(slot.values_.data(),
              static_cast<std::size_t>(slot.rows_ * slot.cols_), dst.data());
  slot.full_ = false;
  bytes_ -= slot.bytes_;
  --entries_;
}

void HostStaging::clear() {
  for (auto& entry : slots_) entry.second.full_ = false;
  bytes_ = 0;
  entries_ = 0;
}

}  // namespace mpipe::mem
