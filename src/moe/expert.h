#pragma once
/// \file expert.h
/// The expert FFN: y = act(x W1 + b1) W2 + b2 — the paper's default expert
/// (two linear layers, activation applied in place). Span-indexed variants
/// let several experts on one device process disjoint contiguous row spans
/// of the shared T_DI / T_M / T_DO partition buffers; tokens move by block
/// memcpy and the GEMMs fuse the bias/activation epilogue.

#include <vector>

#include "common/rng.h"
#include "moe/config.h"
#include "moe/dispatcher.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace mpipe::moe {

class ExpertFFN {
 public:
  ExpertFFN(std::int64_t d_model, std::int64_t d_hidden,
            ActivationKind activation, Rng& rng);

  /// Dense whole-tensor forward: returns output, writes the middle
  /// (post-activation) tensor into `mid`.
  Tensor forward(const Tensor& x, Tensor& mid) const;

  /// Dense backward; accumulates weight grads, returns dX.
  Tensor backward(const Tensor& dy, const Tensor& x, const Tensor& mid);

  /// Span-indexed forward: processes the rows of `in` covered by `spans`,
  /// writing the same rows of `mid_buf` and `out_buf`.
  void forward_rows(const Tensor& in, const RowSpanList& spans,
                    Tensor& mid_buf, Tensor& out_buf) const;

  /// FFN1 only: T_M rows = act(T_DI rows · W1 + b1). Same computation as
  /// recompute_mid_rows; aliased for the pipeline's C1 stage.
  void forward_mid_rows(const Tensor& in_buf, const RowSpanList& spans,
                        Tensor& mid_buf) const {
    recompute_mid_rows(in_buf, spans, mid_buf);
  }

  /// FFN2 only: T_DO rows = T_M rows · W2 + b2 (the pipeline's C2 stage).
  void forward_out_rows(const Tensor& mid_buf, const RowSpanList& spans,
                        Tensor& out_buf) const;

  /// Span-indexed backward: consumes the same rows of dout/in/mid buffers,
  /// writes dX into the rows of `din_buf`, accumulates weight grads.
  void backward_rows(const Tensor& dout_buf, const Tensor& in_buf,
                     const Tensor& mid_buf, const RowSpanList& spans,
                     Tensor& din_buf);

  /// Recompute of T_M rows from restored T_DI rows (strategies S3/S4).
  void recompute_mid_rows(const Tensor& in_buf, const RowSpanList& spans,
                          Tensor& mid_buf) const;

  void zero_grad();

  /// Parameter/grad access for the optimizer (order: w1, b1, w2, b2).
  std::vector<Tensor*> parameters();
  std::vector<Tensor*> gradients();

  std::int64_t d_model() const { return w1_.dim(0); }
  std::int64_t d_hidden() const { return w1_.dim(1); }
  ActivationKind activation() const { return activation_; }

  // ---- mixed-precision weight storage --------------------------------------
  /// Selects the storage dtype for W1/W2 (MoELayerOptions::compute_dtype).
  /// Non-f32 keeps the fp32 tensors as master weights (the optimizer and
  /// weight-grad GEMMs still use them) plus a quantized side copy that
  /// every forward / dX GEMM dequantizes at pack time. kF32 drops the
  /// copies and restores the exact legacy path. Biases stay fp32.
  void set_compute_dtype(DType dtype);
  DType compute_dtype() const { return compute_dtype_; }

  /// Re-quantizes the weight caches from the current master weights.
  /// Must run after every optimizer update (and checkpoint restore) or
  /// the compute path silently uses stale weights. No-op for kF32.
  void refresh_quantized();

  /// Accounted bytes of the quantized W1/W2 copies (0 for kF32) — what a
  /// real device would hold for the forward path instead of fp32 weights.
  std::uint64_t quantized_weight_bytes() const {
    return qw1_.nbytes() + qw2_.nbytes();
  }

 private:
  void ffn1(const Tensor& x, GemmEpilogue ep, Tensor& mid) const;
  void ffn2(const Tensor& act, Tensor& out) const;

  ActivationKind activation_;
  Tensor w1_, b1_, w2_, b2_;
  Tensor gw1_, gb1_, gw2_, gb2_;
  DType compute_dtype_ = DType::kF32;
  QuantizedMatrix qw1_, qw2_;
};

/// gather_spans and scatter_spans fan their spans out over the shared pool
/// once a call moves at least this many floats (2 MiB); below it the
/// parallel_for dispatch costs more than the copy itself and they stay
/// serial. Set at the crossover measured on a 4-vCPU host (sweep in
/// src/tensor/README.md). The spans are disjoint, so the result is
/// bitwise identical on either side.
inline constexpr std::int64_t kParallelCopyElems = 1 << 19;

/// Copies the rows of `buf` covered by `spans` into one fresh packed
/// (span_rows x cols) tensor — contiguous block memcpy per span, no
/// per-row temporaries.
Tensor gather_spans(const Tensor& buf, const RowSpanList& spans);

/// gather_spans into `out`, which must already be (span_rows x cols): a
/// caller that gathers the same shape repeatedly reuses one packed tensor
/// instead of allocating and zero-filling a fresh one per call.
void gather_spans(const Tensor& buf, const RowSpanList& spans, Tensor& out);

/// Scatters the packed rows of `src` back into the `spans` rows of `buf`
/// (inverse of gather_spans). Spans must cover disjoint buffer rows —
/// dispatch plans always do — because large scatters fan the copies out
/// across the thread pool; overlap throws CheckError.
void scatter_spans(const Tensor& src, Tensor& buf, const RowSpanList& spans);

}  // namespace mpipe::moe
