#include "mem/device_allocator.h"

#include <sstream>

#include "common/check.h"
#include "common/units.h"

namespace mpipe::mem {

namespace {
std::string oom_message(int device, std::uint64_t requested,
                        std::uint64_t in_use, std::uint64_t capacity) {
  std::ostringstream os;
  os << "device " << device << " out of memory: requested "
     << mpipe::mib(static_cast<double>(requested)) << " MiB with "
     << mpipe::mib(static_cast<double>(in_use)) << " MiB in use of "
     << mpipe::mib(static_cast<double>(capacity)) << " MiB capacity";
  return os.str();
}
}  // namespace

OutOfMemoryError::OutOfMemoryError(int device, std::uint64_t requested_,
                                   std::uint64_t in_use_,
                                   std::uint64_t capacity_)
    : std::runtime_error(oom_message(device, requested_, in_use_, capacity_)),
      requested(requested_),
      in_use(in_use_),
      capacity(capacity_) {}

Allocation::Allocation(DeviceAllocator* allocator, Category category,
                       std::uint64_t bytes)
    : allocator_(allocator), category_(category), bytes_(bytes) {}

Allocation::~Allocation() { release(); }

Allocation::Allocation(Allocation&& other) noexcept
    : allocator_(other.allocator_),
      category_(other.category_),
      bytes_(other.bytes_) {
  other.allocator_ = nullptr;
  other.bytes_ = 0;
}

Allocation& Allocation::operator=(Allocation&& other) noexcept {
  if (this != &other) {
    release();
    allocator_ = other.allocator_;
    category_ = other.category_;
    bytes_ = other.bytes_;
    other.allocator_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

void Allocation::release() {
  if (allocator_ != nullptr) {
    allocator_->on_release(category_, bytes_);
    allocator_ = nullptr;
    bytes_ = 0;
  }
}

DeviceAllocator::DeviceAllocator(int device_id, std::uint64_t capacity_bytes)
    : device_id_(device_id), capacity_(capacity_bytes) {
  MPIPE_EXPECTS(device_id >= 0, "negative device id");
}

Allocation DeviceAllocator::allocate(Category category, std::uint64_t bytes) {
  if (fault_injector_ != nullptr &&
      fault_injector_->should_fail_alloc(alloc_seq_++)) {
    throw OutOfMemoryError(device_id_, bytes, tracker_.current_total(),
                           capacity_);
  }
  if (capacity_ != 0 && tracker_.current_total() + bytes > capacity_) {
    throw OutOfMemoryError(device_id_, bytes, tracker_.current_total(),
                           capacity_);
  }
  tracker_.allocate(category, bytes);
  return Allocation(this, category, bytes);
}

std::uint64_t accounted_bytes(const Shape& shape, DType dtype) {
  return dtype != DType::kF32 && shape.rank() == 2
             ? quantized_bytes(shape.dim(0), shape.dim(1), dtype)
             : static_cast<std::uint64_t>(shape.numel()) * sizeof(float);
}

TrackedTensor DeviceAllocator::alloc_tensor(Shape shape, Category category,
                                            bool materialize,
                                            DType account_dtype) {
  TrackedTensor out;
  out.allocation = allocate(category, accounted_bytes(shape, account_dtype));
  if (materialize) {
    out.tensor = Tensor(shape);
  }
  return out;
}

void DeviceAllocator::on_release(Category category, std::uint64_t bytes) {
  tracker_.release(category, bytes);
}

}  // namespace mpipe::mem
