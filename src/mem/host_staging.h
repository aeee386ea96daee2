#pragma once
/// \file host_staging.h
/// CPU-side store for offloaded activations (strategies S1–S3). The paper
/// swaps partitions of T_DI / T_M to host RAM over PCIe during the forward
/// pass and prefetches them back in backward. Here the "device" tensors are
/// also host memory, so staging is a real copy plus byte accounting — the
/// restore paths are still byte-exact round trips.
///
/// The store holds one slot per (device, Stash, partition), the host twin
/// of BufferPool's per-partition device slots: an offload copies a device
/// buffer's rows into its slot, the prefetch copies them back and empties
/// it. A slot keeps its storage across steps and only grows.
///
/// Thread safety: slots are created only while a graph is built (single-
/// threaded) and never move. Under the parallel graph executor, copies of
/// *different* slots run concurrently; the hazard validator proves no two
/// concurrent ops touch one slot (its address is its sim::access_token).
/// The byte and entry totals all copies update are atomic.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace mpipe::mem {

/// The activation buffers the restores offload and prefetch.
enum class Stash { kTdi, kTm };

class HostStaging {
 public:
  /// One staged (rows, cols) block; opaque outside HostStaging.
  class Slot {
    friend class HostStaging;
    int device_ = 0;
    Stash what_ = Stash::kTdi;
    int partition_ = 0;
    std::vector<float> values_;  ///< capacity only grows
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::uint64_t bytes_ = 0;  ///< accounted (possibly quantized) bytes
    bool full_ = false;
    std::string name() const;
  };

  /// The slot for (device, what, partition), created on first use. Call
  /// only while building a graph; the reference stays valid for the
  /// staging object's lifetime.
  Slot& slot(int device, Stash what, int partition);

  /// Copies rows [0, rows) of `src` into `slot`. Storing into a slot that
  /// holds data is a CheckError that leaves the store untouched: each
  /// store is consumed by one restore (or dropped by clear()) first, so a
  /// double store means two ring slots resolved to one staging slot — the
  /// masked double-stash bug a silent overwrite would hide.
  ///
  /// A reduced `dtype` models offloading in the wire format: the staged
  /// values are rounded in place through bf16 / int8-per-row and accounted
  /// at the quantized size (elements + int8 row scales), so bytes_stored()
  /// reports what host RAM would hold. The restore returns the rounded
  /// fp32 expansion.
  void store(Slot& slot, const Tensor& src, std::int64_t rows,
             DType dtype = DType::kF32);

  /// Copies the staged rows into rows [0, rows) of `dst` and empties the
  /// slot; throws if it is empty.
  void restore(Slot& slot, Tensor& dst);

  /// Empties every slot, keeping its storage.
  void clear();

  std::uint64_t bytes_stored() const { return bytes_.load(); }
  /// Slots holding data.
  std::size_t entries() const { return entries_.load(); }

 private:
  std::map<std::tuple<int, Stash, int>, Slot> slots_;  // nodes never move
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::size_t> entries_{0};
};

}  // namespace mpipe::mem
