#pragma once
/// \file host_staging.h
/// CPU-side store for offloaded activations (strategies S1–S3). The paper
/// swaps partitions of T_DI / T_M to host RAM over PCIe during the forward
/// pass and prefetches them back in backward. Here the "device" tensors are
/// also host memory, so staging is a real deep copy plus byte accounting —
/// the restore paths are still byte-exact round trips.
///
/// Thread safety: the store is shared by every device's mem-stream ops, and
/// under the parallel graph executor offloads/prefetches for *different*
/// devices run concurrently. All map mutations are mutex-guarded; the
/// hazard validator additionally proves that no two concurrent ops touch
/// the same logical slot (see slot_token).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace mpipe::mem {

class HostStaging {
 public:
  /// Stores a copy of `t` under (device, key). A collision with a live
  /// entry is a CheckError by default: every offload key is supposed to be
  /// consumed (load + drop) or cleared before the slot is written again, so
  /// a double-store means two ring slots resolved to the same key — exactly
  /// the masked double-stash bug a silent overwrite would hide. Callers
  /// that *intend* replacement (e.g. re-staging a partition after a step
  /// replay) must say so with `allow_overwrite`.
  ///
  /// A reduced `dtype` models offloading in the wire format: the staged
  /// copy's values are rounded through bf16 / int8-per-row before storage
  /// and the entry is accounted at the quantized byte size (elements +
  /// int8 row scales), so bytes_stored() reports what host RAM would
  /// actually hold. The restored tensor is the rounded fp32 expansion.
  void store(int device, const std::string& key, const Tensor& t,
             bool allow_overwrite = false, DType dtype = DType::kF32);

  /// Retrieves a copy; throws if absent.
  Tensor load(int device, const std::string& key) const;

  bool contains(int device, const std::string& key) const;

  /// Drops one entry (after its backward consumer ran).
  void drop(int device, const std::string& key);

  /// Drops everything staged.
  void clear();

  std::uint64_t bytes_stored() const;
  std::size_t entries() const;

  /// Stable identity for the logical slot (device, key), for hazard
  /// declarations (sim::BufferAccess::id): an offload op *writes* the
  /// token, the matching prefetch *reads* it. Created on first use at
  /// graph-build time (single-threaded); the address stays valid for the
  /// staging object's lifetime (map nodes do not move).
  const void* slot_token(int device, const std::string& key);

 private:
  struct Entry {
    Tensor t;
    std::uint64_t bytes = 0;  ///< accounted (possibly quantized) bytes
  };

  mutable std::mutex mu_;
  std::map<std::pair<int, std::string>, Entry> store_;
  std::map<std::pair<int, std::string>, char> tokens_;
  std::uint64_t bytes_ = 0;
};

}  // namespace mpipe::mem
