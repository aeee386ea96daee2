#pragma once
/// \file simd.h
/// Shared GCC/Clang vector-extension helpers for the row-wise kernels
/// (layer norm, softmax, reductions) — the same pattern as the GEMM
/// micro-kernel in gemm.cpp: an explicit 8-lane float vector so the
/// compiler emits the wide ops we want, with a portable scalar fallback
/// elsewhere. Kernels built on these must stay numerically equivalent to
/// their scalar formulation (lane-split accumulation is allowed); the
/// scalar-vs-SIMD sweeps in tests/test_engine_fuzz.cpp enforce it.

#include <cstdint>

#if defined(__GNUC__) || defined(__clang__)
#define MPIPE_SIMD 1
#endif

namespace mpipe::simd {

#if defined(MPIPE_SIMD)

inline constexpr std::int64_t kLanes = 8;

/// 8 x float. alignment 4 keeps loads/stores legal on arbitrary row
/// starts (rows of a (B, dim) tensor are not 32-byte aligned).
typedef float VF __attribute__((vector_size(kLanes * sizeof(float)),
                                aligned(alignof(float))));

inline VF load(const float* p) { return *reinterpret_cast<const VF*>(p); }
inline void store(float* p, VF v) { *reinterpret_cast<VF*>(p) = v; }
inline VF splat(float x) { return VF{} + x; }

inline float hsum(VF v) {
  float s = 0.0f;
  for (std::int64_t i = 0; i < kLanes; ++i) s += v[i];
  return s;
}

inline float hmax(VF v) {
  float m = v[0];
  for (std::int64_t i = 1; i < kLanes; ++i) m = v[i] > m ? v[i] : m;
  return m;
}

inline VF vmax(VF a, VF b) { return a > b ? a : b; }

/// Per-lane square root; GCC/Clang lower the fixed-trip loop to the wide
/// sqrt instruction. Kept here so kernels (Adam) stay expressed in VF ops.
inline VF vsqrt(VF v) {
  VF r;
  for (std::int64_t i = 0; i < kLanes; ++i) r[i] = __builtin_sqrtf(v[i]);
  return r;
}

/// In-register 8x8 transpose: afterwards r[i][j] holds the old r[j][i].
/// Three shuffle stages (pair interleave, quad interleave, half swap) that
/// map one-to-one onto the unpack / shufps / 128-bit permute sequence, so
/// the GEMM packer can turn eight strided rows into eight panel rows. A
/// pure permutation: values move bit for bit.
inline void transpose8x8(VF r[8]) {
  VF t[8], s[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = __builtin_shufflevector(r[i], r[i + 1], 0, 8, 1, 9, 4, 12, 5, 13);
    t[i + 1] =
        __builtin_shufflevector(r[i], r[i + 1], 2, 10, 3, 11, 6, 14, 7, 15);
  }
  for (int i = 0; i < 8; i += 4) {
    for (int j = 0; j < 2; ++j) {
      s[i + 2 * j] = __builtin_shufflevector(t[i + j], t[i + j + 2], 0, 1, 8,
                                             9, 4, 5, 12, 13);
      s[i + 2 * j + 1] = __builtin_shufflevector(t[i + j], t[i + j + 2], 2, 3,
                                                 10, 11, 6, 7, 14, 15);
    }
  }
  for (int i = 0; i < 4; ++i) {
    r[i] = __builtin_shufflevector(s[i], s[i + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    r[i + 4] =
        __builtin_shufflevector(s[i], s[i + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

#else

inline constexpr std::int64_t kLanes = 1;

#endif  // MPIPE_SIMD

}  // namespace mpipe::simd
