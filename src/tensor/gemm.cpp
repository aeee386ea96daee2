#include "tensor/gemm.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/simd.h"

namespace mpipe {

namespace {

// ---- blocking parameters --------------------------------------------------
// One C tile is MC x NC; K is consumed in KC slices. Per K slice every A
// and B element is packed once, A into MR-row micro panels and B into
// NR-column micro panels (KC*NR floats, 16 KiB, L1-resident while a tile
// sweeps its rows). The micro-kernel is MR x NR = 8 x 16: eight vector
// accumulators with one B load and eight A broadcasts per k step, written
// so the compiler turns the unit-stride j loop into FMAs.
constexpr std::int64_t kMR = 8;
constexpr std::int64_t kNR = 16;
constexpr std::int64_t kMC = 64;
constexpr std::int64_t kNC = 128;
constexpr std::int64_t kKC = 256;
// A is packed in blocks of up to kMA rows per slice, so the packed-panel
// scratch stays within (kMA + N_pad) x KC floats however tall A is.
constexpr std::int64_t kMA = 256;
static_assert(kMC % kMR == 0 && kNC % kNR == 0, "tile/micro mismatch");
static_assert(kMA % kMC == 0, "A block/tile mismatch");

std::int64_t round_up(std::int64_t x, std::int64_t to) {
  return (x + to - 1) / to * to;
}

/// 64-byte-aligned thread-local scratch for packed panels.
class AlignedScratch {
 public:
  float* get(std::size_t n) {
    if (raw_.size() < n + kPad) raw_.resize(n + kPad);
    const auto addr = reinterpret_cast<std::uintptr_t>(raw_.data());
    return raw_.data() + (64 - addr % 64) % 64 / sizeof(float);
  }

 private:
  static constexpr std::size_t kPad = 64 / sizeof(float);
  std::vector<float> raw_;
};

/// One GEMM operand as the packer reads it: a logical (K x lanes) matrix,
/// where the lanes are A's rows or B's columns. Element (k, l) is stored
/// at data[k * ld + l] when `lanes_contiguous` (tn-A, nn-B), otherwise at
/// data[l * ld + k] (nn-A, nt-B: the pack transposes). `dtype` is the
/// storage format; `scales` is the per-stored-row fp32 scale array (kI8
/// only). A is always fp32.
struct Operand {
  const void* data;
  std::int64_t ld;
  bool lanes_contiguous;
  DType dtype = DType::kF32;
  const float* scales = nullptr;
};

// ---- element readers --------------------------------------------------------
// Map (element offset, stored row) to fp32, one element or eight
// consecutive ones. Dequantization rides the pack pass, so the
// micro-kernel always consumes fp32 panels; the vector form computes each
// lane exactly as the scalar form does.

struct F32Elems {
  const float* data;
  float operator()(std::int64_t i, std::int64_t) const { return data[i]; }
#if defined(MPIPE_SIMD)
  simd::VF load8(std::int64_t i, std::int64_t) const {
    return simd::load(data + i);
  }
#endif
};

struct Bf16Elems {
  const std::uint16_t* data;
  float operator()(std::int64_t i, std::int64_t) const {
    return f32_from_bf16(data[i]);
  }
#if defined(MPIPE_SIMD)
  simd::VF load8(std::int64_t i, std::int64_t) const {
    typedef std::uint16_t U16x8 __attribute__((vector_size(16)));
    typedef std::uint32_t U32x8 __attribute__((vector_size(32)));
    U16x8 v;
    __builtin_memcpy(&v, data + i, sizeof(v));
    return std::bit_cast<simd::VF>(__builtin_convertvector(v, U32x8) << 16);
  }
#endif
};

struct I8Elems {
  const std::int8_t* data;
  const float* scales;
  float operator()(std::int64_t i, std::int64_t row) const {
    return static_cast<float>(data[i]) * scales[row];
  }
#if defined(MPIPE_SIMD)
  simd::VF load8(std::int64_t i, std::int64_t row) const {
    typedef std::int8_t I8x8 __attribute__((vector_size(8)));
    I8x8 v;
    __builtin_memcpy(&v, data + i, sizeof(v));
    return __builtin_convertvector(v, simd::VF) * scales[row];
  }
#endif
};

/// Packs lanes [l_begin, l_end) x steps [k0, k0+kc) into W-lane micro
/// panels: panel p holds kc steps of W consecutive lane values ([k][lane]
/// order) at out + p * W * kc. Full panels take fixed-width paths: 8-lane
/// copies when lanes are contiguous (row by row, so the source streams
/// sequentially), 8x8 in-register transposes when steps are. The generic
/// loop packs the ragged last panel, zero-padding its missing lanes so the
/// micro-kernel never branches in its FMA loop, and the kc % 8 step tail
/// the transposes leave.
template <std::int64_t W, typename Elems>
void pack_panels(const Elems& src, std::int64_t ld, bool lanes_contiguous,
                 std::int64_t k0, std::int64_t kc, std::int64_t l_begin,
                 std::int64_t l_end, float* MPIPE_RESTRICT out) {
  // The fast paths pack steps [0, k_full) of the whole panels in
  // lanes [l_begin, l_full).
  std::int64_t l_full = l_begin;
  std::int64_t k_full = 0;
#if defined(MPIPE_SIMD)
  static_assert(W % simd::kLanes == 0, "panel width must be whole vectors");
  l_full = l_begin + (l_end - l_begin) / W * W;
  if (lanes_contiguous) {
    k_full = kc;
    for (std::int64_t k = 0; k < kc; ++k) {
      const std::int64_t row = k0 + k;
      for (std::int64_t l0 = l_begin; l0 < l_full; l0 += W) {
        float* MPIPE_RESTRICT dst = out + (l0 - l_begin) * kc + k * W;
        for (std::int64_t l = 0; l < W; l += simd::kLanes) {
          simd::store(dst + l, src.load8(row * ld + l0 + l, row));
        }
      }
    }
  } else {
    k_full = kc - kc % simd::kLanes;
    for (std::int64_t l0 = l_begin; l0 < l_full; l0 += W) {
      float* MPIPE_RESTRICT panel = out + (l0 - l_begin) * kc;
      for (std::int64_t l = 0; l < W; l += simd::kLanes) {
        for (std::int64_t k = 0; k < k_full; k += simd::kLanes) {
          simd::VF r[simd::kLanes];
          for (std::int64_t i = 0; i < simd::kLanes; ++i) {
            const std::int64_t row = l0 + l + i;
            r[i] = src.load8(row * ld + k0 + k, row);
          }
          simd::transpose8x8(r);
          for (std::int64_t i = 0; i < simd::kLanes; ++i) {
            simd::store(panel + (k + i) * W + l, r[i]);
          }
        }
      }
    }
  }
#endif
  for (std::int64_t l0 = l_begin; l0 < l_end; l0 += W) {
    const std::int64_t w = std::min(W, l_end - l0);
    const std::int64_t k_begin = l0 < l_full ? k_full : 0;
    float* MPIPE_RESTRICT panel = out + (l0 - l_begin) * kc;
    if (lanes_contiguous) {
      for (std::int64_t k = k_begin; k < kc; ++k) {
        const std::int64_t row = k0 + k;
        float* MPIPE_RESTRICT dst = panel + k * W;
        for (std::int64_t l = 0; l < w; ++l) {
          dst[l] = src(row * ld + l0 + l, row);
        }
        for (std::int64_t l = w; l < W; ++l) dst[l] = 0.0f;
      }
    } else {
      for (std::int64_t l = 0; l < w; ++l) {
        const std::int64_t row = l0 + l;
        for (std::int64_t k = k_begin; k < kc; ++k) {
          panel[k * W + l] = src(row * ld + k0 + k, row);
        }
      }
      for (std::int64_t l = w; l < W; ++l) {
        for (std::int64_t k = k_begin; k < kc; ++k) panel[k * W + l] = 0.0f;
      }
    }
  }
}

/// Dtype dispatch for pack_panels: one switch per operand slice, nothing
/// in the element loops.
template <std::int64_t W>
void pack_operand(const Operand& op, std::int64_t k0, std::int64_t kc,
                  std::int64_t l_begin, std::int64_t l_end,
                  float* MPIPE_RESTRICT out) {
  switch (op.dtype) {
    case DType::kF32:
      pack_panels<W>(F32Elems{static_cast<const float*>(op.data)}, op.ld,
                     op.lanes_contiguous, k0, kc, l_begin, l_end, out);
      return;
    case DType::kBF16:
      pack_panels<W>(Bf16Elems{static_cast<const std::uint16_t*>(op.data)},
                     op.ld, op.lanes_contiguous, k0, kc, l_begin, l_end, out);
      return;
    case DType::kI8:
      pack_panels<W>(
          I8Elems{static_cast<const std::int8_t*>(op.data), op.scales},
          op.ld, op.lanes_contiguous, k0, kc, l_begin, l_end, out);
      return;
  }
  MPIPE_UNREACHABLE("unknown dtype");
}

/// C[0..mr) x [0..nr) (+)= Apanel * Bpanel over kc steps. The accumulator
/// block (kMR vector rows of kNR floats) stays in registers for the whole
/// k loop; each k step is one B-row load plus kMR broadcast FMAs.
#if defined(__GNUC__) || defined(__clang__)

// Explicit vector type: GCC 12's auto-vectorizer turns the equivalent
// scalar loops into a permute cascade, so the kernel spells out the shape
// it wants. vector_size(64) compiles on any target (narrower ISAs split
// the ops); alignment 4 keeps loads/stores legal on unpadded C rows.
typedef float VRow __attribute__((vector_size(kNR * sizeof(float)),
                                  aligned(alignof(float))));

void micro_kernel(const float* MPIPE_RESTRICT ap,
                  const float* MPIPE_RESTRICT bp, std::int64_t kc,
                  float* MPIPE_RESTRICT c, std::int64_t ldc, std::int64_t mr,
                  std::int64_t nr, bool overwrite) {
  VRow acc[kMR] = {};
  for (std::int64_t k = 0; k < kc; ++k) {
    const VRow brow = *reinterpret_cast<const VRow*>(bp + k * kNR);
    const float* MPIPE_RESTRICT arow = ap + k * kMR;
    for (std::int64_t m = 0; m < kMR; ++m) {
      acc[m] += arow[m] * brow;
    }
  }
  if (mr == kMR && nr == kNR) {
    for (std::int64_t m = 0; m < kMR; ++m) {
      VRow* crow = reinterpret_cast<VRow*>(c + m * ldc);
      *crow = overwrite ? acc[m] : *crow + acc[m];
    }
    return;
  }
  for (std::int64_t m = 0; m < mr; ++m) {
    float* crow = c + m * ldc;
    if (overwrite) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = acc[m][j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += acc[m][j];
    }
  }
}

#else  // portable scalar fallback

void micro_kernel(const float* MPIPE_RESTRICT ap,
                  const float* MPIPE_RESTRICT bp, std::int64_t kc,
                  float* MPIPE_RESTRICT c, std::int64_t ldc, std::int64_t mr,
                  std::int64_t nr, bool overwrite) {
  float acc[kMR * kNR] = {};
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* brow = bp + k * kNR;
    const float* arow = ap + k * kMR;
    for (std::int64_t m = 0; m < kMR; ++m) {
      const float am = arow[m];
      float* accrow = acc + m * kNR;
      for (std::int64_t j = 0; j < kNR; ++j) accrow[j] += am * brow[j];
    }
  }
  for (std::int64_t m = 0; m < mr; ++m) {
    float* crow = c + m * ldc;
    const float* accrow = acc + m * kNR;
    if (overwrite) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = accrow[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += accrow[j];
    }
  }
}

#endif

/// Bias/activation over one finished C tile, applied while the tile is
/// still cache-hot — the "fused" epilogue that replaces whole-tensor
/// add_bias_/relu passes.
void epilogue_tile(float* MPIPE_RESTRICT c, std::int64_t ldc,
                   std::int64_t mb, std::int64_t nb,
                   const float* MPIPE_RESTRICT bias, GemmEpilogue ep) {
  for (std::int64_t m = 0; m < mb; ++m) {
    float* MPIPE_RESTRICT crow = c + m * ldc;
    switch (ep) {
      case GemmEpilogue::kBias:
        for (std::int64_t j = 0; j < nb; ++j) crow[j] += bias[j];
        break;
      case GemmEpilogue::kBiasReLU:
        for (std::int64_t j = 0; j < nb; ++j) {
          const float v = crow[j] + bias[j];
          crow[j] = v > 0.0f ? v : 0.0f;
        }
        break;
      case GemmEpilogue::kBiasGELU:
        for (std::int64_t j = 0; j < nb; ++j) {
          crow[j] = gelu_scalar(crow[j] + bias[j]);
        }
        break;
      case GemmEpilogue::kNone:
        break;
    }
  }
}

/// bias_grad[j] += colsum of one packed B slice (kc x n, zero-padded
/// NR-column micro panels). Padding columns sum to zero, so the inner loop
/// runs full kNR lanes and only the write-back respects the ragged edge.
void reduce_b_slice(const float* MPIPE_RESTRICT bpack, std::int64_t kc,
                    std::int64_t n, float* MPIPE_RESTRICT bias_grad) {
  for (std::int64_t jp = 0; jp < n; jp += kNR) {
    const float* MPIPE_RESTRICT panel = bpack + jp * kc;
    float acc[kNR] = {};
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* MPIPE_RESTRICT brow = panel + kk * kNR;
      for (std::int64_t j = 0; j < kNR; ++j) acc[j] += brow[j];
    }
    const std::int64_t nr = std::min(kNR, n - jp);
    for (std::int64_t j = 0; j < nr; ++j) bias_grad[jp + j] += acc[j];
  }
}

/// Shared driver. For each KC slice the calling thread packs every B
/// column panel, then each block of up to kMA A rows, exactly once into
/// its own thread-local scratch; after each A block the tile grid over
/// those rows runs the micro-kernel on the pool. Each C element still
/// accumulates k ascending inside a slice, slices added in order, so
/// results do not depend on the pool size. When `bias_grad` is set, the
/// caller adds colsum(B) from each packed slice, slices in order; the
/// epilogue runs on each tile in the last slice.
void gemm_driver(const Operand& a, const Operand& b, float* c,
                 std::int64_t ldc, std::int64_t m, std::int64_t n,
                 std::int64_t k, bool accumulate, const float* bias,
                 GemmEpilogue ep, float* bias_grad = nullptr) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (std::int64_t i = 0; i < m; ++i) {
      if (!accumulate) std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    }
    if (ep != GemmEpilogue::kNone) {
      for (std::int64_t i0 = 0; i0 < m; i0 += kMC) {
        epilogue_tile(c + i0 * ldc, ldc, std::min(kMC, m - i0), n, bias, ep);
      }
    }
    return;
  }

  // B's panels start on a 64-byte boundary, so the micro-kernel's B-row
  // loads never split a cache line.
  const std::int64_t kc_max = std::min(kKC, k);
  const std::int64_t b_floats = round_up(n, kNR) * kc_max;
  static thread_local AlignedScratch scratch;
  float* bpack = scratch.get(static_cast<std::size_t>(
      b_floats + std::min(round_up(m, kMR), kMA) * kc_max));
  float* apack = bpack + b_floats;

  const std::int64_t nt = (n + kNC - 1) / kNC;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
    const std::int64_t kc = std::min(kKC, k - k0);
    pack_operand<kNR>(b, k0, kc, 0, n, bpack);
    if (bias_grad != nullptr) reduce_b_slice(bpack, kc, n, bias_grad);
    const bool overwrite = !accumulate && k0 == 0;
    const bool last = k0 + kc == k;
    for (std::int64_t ia = 0; ia < m; ia += kMA) {
      const std::int64_t ma = std::min(kMA, m - ia);
      pack_operand<kMR>(a, k0, kc, ia, ia + ma, apack);
      const std::int64_t mt = (ma + kMC - 1) / kMC;
      ThreadPool::shared().parallel_for(
          static_cast<std::size_t>(mt * nt),
          [&](std::size_t tile_begin, std::size_t tile_end) {
            for (std::size_t t = tile_begin; t < tile_end; ++t) {
              const std::int64_t i0 =
                  ia + static_cast<std::int64_t>(t) / nt * kMC;
              const std::int64_t j0 = static_cast<std::int64_t>(t) % nt * kNC;
              const std::int64_t mb = std::min(kMC, m - i0);
              const std::int64_t nb = std::min(kNC, n - j0);
              for (std::int64_t jp = j0; jp < j0 + nb; jp += kNR) {
                const std::int64_t nr = std::min(kNR, n - jp);
                for (std::int64_t ip = i0; ip < i0 + mb; ip += kMR) {
                  micro_kernel(apack + (ip - ia) * kc, bpack + jp * kc, kc,
                               c + ip * ldc + jp, ldc, std::min(kMR, m - ip),
                               nr, overwrite);
                }
              }
              if (last && ep != GemmEpilogue::kNone) {
                epilogue_tile(c + i0 * ldc + j0, ldc, mb, nb, bias + j0, ep);
              }
            }
          },
          /*grain=*/1);
    }
  }
}

void check_2d(const Tensor& t, const char* name) {
  MPIPE_EXPECTS(t.defined(), std::string(name) + " is null");
  MPIPE_EXPECTS(t.shape().rank() == 2, std::string(name) + " must be 2-D");
}

}  // namespace

std::uint64_t gemm_flops(std::int64_t m, std::int64_t n, std::int64_t k) {
  return 2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
         static_cast<std::uint64_t>(k);
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_2d(a, "A");
  check_2d(b, "B");
  check_2d(c, "C");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  MPIPE_EXPECTS(b.dim(0) == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  gemm_driver({a.data(), k, false}, {b.data(), n, true}, c.data(), n, m, n,
              k, accumulate, nullptr, GemmEpilogue::kNone);
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_2d(a, "A");
  check_2d(b, "B");
  check_2d(c, "C");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  MPIPE_EXPECTS(b.dim(1) == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  gemm_driver({a.data(), k, false}, {b.data(), k, false}, c.data(), n, m, n,
              k, accumulate, nullptr, GemmEpilogue::kNone);
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_2d(a, "A");
  check_2d(b, "B");
  check_2d(c, "C");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  MPIPE_EXPECTS(b.dim(0) == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  gemm_driver({a.data(), m, true}, {b.data(), n, true}, c.data(), n, m, n,
              k, accumulate, nullptr, GemmEpilogue::kNone);
}

void gemm_tn_bias_grad(const Tensor& a, const Tensor& b, Tensor& c,
                       Tensor& bias_grad, bool accumulate) {
  check_2d(a, "A");
  check_2d(b, "B");
  check_2d(c, "C");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  MPIPE_EXPECTS(b.dim(0) == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  MPIPE_EXPECTS(bias_grad.defined() && bias_grad.shape().rank() == 1 &&
                    bias_grad.dim(0) == n,
                "bias_grad length must equal output columns");
  gemm_driver({a.data(), m, true}, {b.data(), n, true}, c.data(), n, m, n,
              k, accumulate, nullptr, GemmEpilogue::kNone, bias_grad.data());
}

void gemm_bias_act(const Tensor& a, const Tensor& b, const Tensor& bias,
                   GemmEpilogue epilogue, Tensor& c) {
  check_2d(a, "A");
  check_2d(b, "B");
  check_2d(c, "C");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  MPIPE_EXPECTS(b.dim(0) == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  const float* bias_ptr = nullptr;
  if (epilogue != GemmEpilogue::kNone) {
    MPIPE_EXPECTS(bias.defined() && bias.shape().rank() == 1 &&
                      bias.dim(0) == n,
                  "bias length must equal output columns");
    bias_ptr = bias.data();
  }
  gemm_driver({a.data(), k, false}, {b.data(), n, true}, c.data(), n, m, n,
              k, /*accumulate=*/false, bias_ptr, epilogue);
}

void gemm_bias(const Tensor& a, const Tensor& b, const Tensor& bias,
               Tensor& c) {
  gemm_bias_act(a, b, bias, GemmEpilogue::kBias, c);
}

namespace {

void check_quant_b(const QuantView& b) {
  MPIPE_EXPECTS(b.data != nullptr && b.rows > 0 && b.cols > 0,
                "quantized B operand is null");
  MPIPE_EXPECTS(b.dtype != DType::kI8 || b.row_scales != nullptr,
                "int8 B operand needs per-row scales");
}

}  // namespace

void gemm_bias_act_q(const Tensor& a, const QuantView& b, const Tensor& bias,
                     GemmEpilogue epilogue, Tensor& c) {
  check_2d(a, "A");
  check_2d(c, "C");
  check_quant_b(b);
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.cols;
  MPIPE_EXPECTS(b.rows == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  const float* bias_ptr = nullptr;
  if (epilogue != GemmEpilogue::kNone) {
    MPIPE_EXPECTS(bias.defined() && bias.shape().rank() == 1 &&
                      bias.dim(0) == n,
                  "bias length must equal output columns");
    bias_ptr = bias.data();
  }
  gemm_driver({a.data(), k, false}, {b.data, n, true, b.dtype, b.row_scales},
              c.data(), n, m, n, k, /*accumulate=*/false, bias_ptr, epilogue);
}

void gemm_nt_q(const Tensor& a, const QuantView& b, Tensor& c,
               bool accumulate) {
  check_2d(a, "A");
  check_2d(c, "C");
  check_quant_b(b);
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.rows;
  MPIPE_EXPECTS(b.cols == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  gemm_driver({a.data(), k, false}, {b.data, k, false, b.dtype, b.row_scales},
              c.data(), n, m, n, k, accumulate, nullptr, GemmEpilogue::kNone);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c(Shape{a.dim(0), b.dim(1)});
  gemm(a, b, c);
  return c;
}

}  // namespace mpipe
