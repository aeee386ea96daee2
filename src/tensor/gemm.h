#pragma once
/// \file gemm.h
/// Packed, register-blocked, multithreaded single-precision GEMM. All three
/// transpose variants route through one micro-kernel. Per K slice the
/// calling thread packs each element of A and B exactly once into its own
/// aligned scratch (nt/tn transposes and bf16/int8 dequantization happen at
/// pack time, full panels on fixed-width SIMD paths), then the tile grid
/// runs over the shared panels on the pool. The FFN-facing entry points
/// fuse the bias/activation epilogue into the last pass over C. Every entry
/// point is bitwise independent of the pool size, and each row of C equals
/// the one-row GEMM of that row of A. These kernels carry all
/// expert/gating compute; see src/tensor/README.md for the design and
/// measured throughput.

#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace mpipe {

/// Epilogue fused into the final write of each output tile.
enum class GemmEpilogue {
  kNone,      ///< C = A*B (plain accumulate)
  kBias,      ///< C = A*B + bias (bias broadcast over rows)
  kBiasReLU,  ///< C = relu(A*B + bias)
  kBiasGELU,  ///< C = gelu(A*B + bias), tanh approximation
};

/// C = A(MxK) * B(KxN)          (+ C if accumulate)
void gemm(const Tensor& a, const Tensor& b, Tensor& c,
          bool accumulate = false);

/// C = A(MxK) * B^T(NxK)        (+ C if accumulate)
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c,
             bool accumulate = false);

/// C = A^T(KxM) * B(KxN)        (+ C if accumulate)
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c,
             bool accumulate = false);

/// C = A^T(KxM) * B(KxN) (+ C if accumulate), and bias_grad[j] +=
/// sum_k B[k][j]. This is the weight-grad shape (dW = X^T dY) with the
/// bias gradient (db = colsum(dY)) folded into the same pass: the column
/// reduction rides the packed B micro-panels while they are cache-hot, so
/// the backward takes no separate pass over dY. `bias_grad` (length N)
/// always accumulates — zero it first for a fresh gradient. Exactly one
/// task owns each column range, with K slices reduced in order, so the
/// result is bitwise independent of the thread count.
void gemm_tn_bias_grad(const Tensor& a, const Tensor& b, Tensor& c,
                       Tensor& bias_grad, bool accumulate = false);

/// C = epilogue(A(MxK) * B(KxN) + bias). The bias (length N) and activation
/// are applied tile-by-tile while C is still hot, so FFN1's bias+ReLU/GELU
/// and FFN2's bias take no separate pass over the activations.
void gemm_bias_act(const Tensor& a, const Tensor& b, const Tensor& bias,
                   GemmEpilogue epilogue, Tensor& c);

/// C = A(MxK) * B(KxN) + bias — gemm_bias_act with the kBias epilogue.
void gemm_bias(const Tensor& a, const Tensor& b, const Tensor& bias,
               Tensor& c);

// ---- mixed-precision B operand ---------------------------------------------
// The quantized entry points mirror their fp32 twins but take the B
// (weight) operand in reduced-precision storage. Dequantization happens
// at pack time — the same place the nt/tn transpose already happens — so
// the 8x16 micro-kernel and its fp32 accumulators are untouched: one
// compute core for every dtype. A kF32 QuantView routes through the
// identical packing code as the fp32 entry points (bitwise identical).

/// A rows x cols matrix in `dtype` storage as the GEMM consumes it.
/// `data` points at fp32 / bf16(u16) / int8 elements per dtype;
/// `row_scales` is the per-stored-row fp32 scale array (kI8 only).
struct QuantView {
  DType dtype = DType::kF32;
  const void* data = nullptr;
  const float* row_scales = nullptr;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
};

/// C = epilogue(A(MxK) * B(KxN) + bias), B dequantized at pack time.
void gemm_bias_act_q(const Tensor& a, const QuantView& b, const Tensor& bias,
                     GemmEpilogue epilogue, Tensor& c);

/// C = A(MxK) * B^T(NxK) (+ C if accumulate), B dequantized at pack time.
void gemm_nt_q(const Tensor& a, const QuantView& b, Tensor& c,
               bool accumulate = false);

/// Returns A*B as a fresh tensor.
Tensor matmul(const Tensor& a, const Tensor& b);

/// FLOP count of an MxK * KxN product (2*M*N*K).
std::uint64_t gemm_flops(std::int64_t m, std::int64_t n, std::int64_t k);

}  // namespace mpipe
