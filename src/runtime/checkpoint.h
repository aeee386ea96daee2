#pragma once
/// \file checkpoint.h
/// Step-level checkpoint/restore for the training runtime: versioned,
/// checksummed binary serialization of everything a bitwise-identical
/// resume needs — model weights, Adam state (tensors + bias-correction
/// step), the workload generator's RNG stream, the correction warmup's
/// state and the layer's factors, and the granularity searcher's
/// cache/ranges (Algorithm 1's
/// verdicts are history-dependent, and the partition count changes the
/// step math bitwise, so the searcher's memory is training state).
///
/// Format (little-endian, fp32 tensors raw):
///   u64 magic 'MPMOECK1'   u32 version   u64 payload_bytes
///   u64 fnv1a64(payload)   payload...
/// Readers validate magic, version, length, and checksum before touching
/// any section and throw CheckError on mismatch — a corrupt checkpoint is
/// fatal, never silently partially applied: decoding happens into a
/// scratch image first, the live model is only written once the whole
/// payload parsed (all-or-nothing restore).
///
/// The same byte image serves both the on-disk save/restore API and the
/// trainer's in-memory rollback snapshots (one serializer, one format).

#include <cstdint>
#include <string>
#include <vector>

#include "core/moe_layer.h"
#include "runtime/adam.h"
#include "runtime/workload.h"
#include "sim/profile.h"

namespace mpipe::runtime {

inline constexpr std::uint64_t kCheckpointMagic = 0x314b43454f4d504dull;
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// FNV-1a 64-bit over a byte range — the checkpoint payload checksum.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size);

/// Trainer bookkeeping that rides along with the tensor state.
struct TrainerCheckpointState {
  std::int64_t steps_run = 0;
  core::CorrectionWarmup::State warmup;
  /// The layer's installed factors (MoELayer::corrections).
  sim::OpClassCorrections corrections;
  core::GranularitySearcher::State searcher;
};

/// Serializes the full training state into one framed, checksummed image.
/// (`layer` is non-const only because parameters() is.)
std::vector<std::uint8_t> encode_checkpoint(core::MoELayer& layer,
                                            const Adam& adam,
                                            const WorkloadGenerator& workload,
                                            const TrainerCheckpointState& state);

/// Validates the frame and applies the image: parameters, Adam tensors and
/// step count are copied element-wise into the existing (pointer-bound)
/// storage, the workload RNG stream is restored, and the trainer section
/// is returned for the caller to re-install (corrections before searcher
/// state — installing corrections flushes the searcher). Throws CheckError
/// on any frame, checksum, or shape mismatch, leaving the model untouched.
TrainerCheckpointState apply_checkpoint(const std::vector<std::uint8_t>& bytes,
                                        core::MoELayer& layer, Adam& adam,
                                        WorkloadGenerator& workload);

void write_checkpoint_file(const std::string& path,
                           const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> read_checkpoint_file(const std::string& path);

}  // namespace mpipe::runtime
