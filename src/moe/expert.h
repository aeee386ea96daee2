#pragma once
/// \file expert.h
/// The expert FFN: y = act(x W1 + b1) W2 + b2 — the paper's default expert
/// (two linear layers, activation applied in place). The in-place stages
/// run on row views of the T_DI / T_M / T_DO ring slots: the dispatcher
/// gives each local expert one contiguous span of a slot's rows, so the
/// GEMMs (bias/activation epilogue fused) read and write the slots
/// directly and no token is copied around them.

#include <vector>

#include "common/rng.h"
#include "moe/config.h"
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

  // In-place stages, one per expert op of the pipeline. Each writes every
  // row of its output; the pipeline passes row views of the ring slots
  // (Tensor::view_rows), the dense forms above fresh tensors.

  /// FFN1: `mid` = the T_M stash of `x` (stage C1, and the S3/S4
  /// recompute Cr).
  void forward_mid(const Tensor& x, Tensor& mid) const;

  /// FFN2: `out` = act(`mid`) · W2 + b2 (stage C2).
  void forward_out(const Tensor& mid, Tensor& out) const;

  /// Backward into `dx` (stage Cb); accumulates weight grads.
  void backward(const Tensor& dy, const Tensor& x, const Tensor& mid,
                Tensor& dx);

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
  ActivationKind activation_;
  Tensor w1_, b1_, w2_, b2_;
  Tensor gw1_, gb1_, gw2_, gb2_;
  DType compute_dtype_ = DType::kF32;
  QuantizedMatrix qw1_, qw2_;
};

}  // namespace mpipe::moe
