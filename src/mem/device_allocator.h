#pragma once
/// \file device_allocator.h
/// Accounting allocator for one simulated device. Allocations are RAII
/// handles: real storage lives in mpipe::Tensor (host memory standing in
/// for HBM); the allocator tracks *what the GPU would hold* so peak
/// footprints reproduce the paper's Figures 2, 9, 10.
///
/// Accounting and storage are separate jobs: allocate() records bytes for
/// the step that asks, whoever holds the storage. alloc_tensor() does both
/// for a tensor that needs fresh storage (a step's outputs); BufferPool
/// accounts its slots per step but may back them with storage that
/// persists across steps (SlotStorage).

#include <cstdint>
#include <memory>
#include <optional>

#include "common/fault_injection.h"
#include "mem/memory_tracker.h"
#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace mpipe::mem {

class DeviceAllocator;

/// Accounted device bytes of a tensor of `shape`: fp32 elements, or for a
/// rank-2 shape with a reduced `dtype` its wire/storage size
/// (quantized_bytes).
std::uint64_t accounted_bytes(const Shape& shape, DType dtype);

/// RAII accounting record; releases its bytes on destruction.
class Allocation {
 public:
  Allocation() = default;
  Allocation(DeviceAllocator* allocator, Category category,
             std::uint64_t bytes);
  ~Allocation();

  Allocation(Allocation&& other) noexcept;
  Allocation& operator=(Allocation&& other) noexcept;
  Allocation(const Allocation&) = delete;
  Allocation& operator=(const Allocation&) = delete;

  std::uint64_t bytes() const { return bytes_; }
  bool active() const { return allocator_ != nullptr; }

  /// Releases early (idempotent).
  void release();

 private:
  DeviceAllocator* allocator_ = nullptr;
  Category category_ = Category::kActivation;
  std::uint64_t bytes_ = 0;
};

/// A tensor whose device residency is tracked.
struct TrackedTensor {
  Tensor tensor;
  Allocation allocation;

  bool defined() const { return tensor.defined(); }
};

class DeviceAllocator {
 public:
  /// `capacity_bytes` caps the device (0 = unlimited). Exceeding it throws
  /// — benches use the cap to demonstrate "fits vs OOM" (Fig 11 batch
  /// scaling discussion).
  explicit DeviceAllocator(int device_id, std::uint64_t capacity_bytes = 0);

  // Live Allocation handles hold a pointer to their allocator, so the
  // allocator must never relocate. Hold DeviceAllocators in a std::deque.
  DeviceAllocator(const DeviceAllocator&) = delete;
  DeviceAllocator& operator=(const DeviceAllocator&) = delete;
  DeviceAllocator(DeviceAllocator&&) = delete;
  DeviceAllocator& operator=(DeviceAllocator&&) = delete;

  int device_id() const { return device_id_; }
  std::uint64_t capacity() const { return capacity_; }

  Allocation allocate(Category category, std::uint64_t bytes);

  /// Allocates a fresh zeroed tensor with accounting. With materialize =
  /// false only the accounting happens (timing-only runs at paper scale
  /// must not touch real storage); the tensor member stays undefined.
  ///
  /// `account_dtype` sets the accounted footprint of a rank-2 shape to its
  /// wire/storage format (accounted_bytes) while the materialized tensor
  /// stays fp32 — the simulation computes in fp32 on values already rounded
  /// through the wire format, but a real device would hold the reduced
  /// bytes. kF32 keeps the exact legacy accounting.
  TrackedTensor alloc_tensor(Shape shape, Category category,
                             bool materialize = true,
                             DType account_dtype = DType::kF32);

  MemoryTracker& tracker() { return tracker_; }
  const MemoryTracker& tracker() const { return tracker_; }

  /// Wires the cluster's fault injector in: allocations then fail with
  /// OutOfMemoryError according to the injector's alloc-failure schedule
  /// (keyed by a per-allocator sequence number). Null detaches. OOM —
  /// injected or real — is fatal to the step, never retried; recovery
  /// happens at the trainer's checkpoint/rollback level.
  void set_fault_injector(std::shared_ptr<const FaultInjector> injector) {
    fault_injector_ = std::move(injector);
  }

 private:
  friend class Allocation;
  void on_release(Category category, std::uint64_t bytes);

  int device_id_;
  std::uint64_t capacity_;
  MemoryTracker tracker_;
  std::shared_ptr<const FaultInjector> fault_injector_;
  // Allocation sequence id feeding the injector's hash; allocations happen
  // on the (single) graph-build thread, so a plain counter suffices.
  std::uint64_t alloc_seq_ = 0;
};

/// Thrown when an allocation would exceed the device capacity.
class OutOfMemoryError : public std::runtime_error {
 public:
  OutOfMemoryError(int device, std::uint64_t requested, std::uint64_t in_use,
                   std::uint64_t capacity);

  std::uint64_t requested;
  std::uint64_t in_use;
  std::uint64_t capacity;
};

}  // namespace mpipe::mem
