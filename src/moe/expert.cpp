#include "moe/expert.h"

#include "common/check.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"

namespace mpipe::moe {

ExpertFFN::ExpertFFN(std::int64_t d_model, std::int64_t d_hidden,
                     ActivationKind activation, Rng& rng)
    : activation_(activation),
      w1_(Shape{d_model, d_hidden}),
      b1_(Shape{d_hidden}),
      w2_(Shape{d_hidden, d_model}),
      b2_(Shape{d_model}),
      gw1_(Shape{d_model, d_hidden}),
      gb1_(Shape{d_hidden}),
      gw2_(Shape{d_hidden, d_model}),
      gb2_(Shape{d_model}) {
  MPIPE_EXPECTS(d_model > 0 && d_hidden > 0, "bad expert dimensions");
  init_kaiming(w1_, rng, d_model);
  init_kaiming(w2_, rng, d_hidden);
}

namespace {

/// GEMM view of a quantized weight cache.
QuantView qview(const QuantizedMatrix& q) {
  return {q.dtype,
          q.dtype == DType::kBF16
              ? static_cast<const void*>(q.bf16.data())
              : static_cast<const void*>(q.i8.data()),
          q.scales.empty() ? nullptr : q.scales.data(), q.rows, q.cols};
}

}  // namespace

void ExpertFFN::set_compute_dtype(DType dtype) {
  compute_dtype_ = dtype;
  if (dtype == DType::kF32) {
    qw1_ = QuantizedMatrix{};
    qw2_ = QuantizedMatrix{};
    return;
  }
  refresh_quantized();
}

void ExpertFFN::refresh_quantized() {
  if (compute_dtype_ == DType::kF32) return;
  qw1_ = quantize_matrix(w1_, compute_dtype_);
  qw2_ = quantize_matrix(w2_, compute_dtype_);
}

// T_M stash convention: with ReLU, `mid` holds the post-activation values
// (in-place semantics, paper §II-B) — the ReLU mask is recoverable from
// them. With GELU the post-activation is not invertible, so `mid` holds
// the PRE-activation and FFN2 applies the activation on the fly; the
// backward reads `mid` accordingly. The activation stash stays B*H either
// way, so the Eq-2 memory model is unchanged.

Tensor ExpertFFN::forward(const Tensor& x, Tensor& mid) const {
  MPIPE_EXPECTS(x.shape().rank() == 2 && x.dim(1) == d_model(),
                "expert input must be (rows, M)");
  mid = Tensor(Shape{x.dim(0), d_hidden()});
  forward_mid(x, mid);
  Tensor out(Shape{x.dim(0), d_model()});
  forward_out(mid, out);
  return out;
}

Tensor ExpertFFN::backward(const Tensor& dy, const Tensor& x,
                           const Tensor& mid) {
  Tensor dx(Shape{x.dim(0), d_model()});
  backward(dy, x, mid, dx);
  return dx;
}

// Both stages go through the quantized weight when a reduced dtype is
// active.

void ExpertFFN::forward_mid(const Tensor& x, Tensor& mid) const {
  // The bias (and ReLU) epilogue is fused into the GEMM tile writes.
  const GemmEpilogue ep = activation_ == ActivationKind::kReLU
                              ? GemmEpilogue::kBiasReLU
                              : GemmEpilogue::kBias;
  if (compute_dtype_ == DType::kF32) {
    gemm_bias_act(x, w1_, b1_, ep, mid);
  } else {
    gemm_bias_act_q(x, qview(qw1_), b1_, ep, mid);
  }
}

void ExpertFFN::forward_out(const Tensor& mid, Tensor& out) const {
  const Tensor act = activation_ == ActivationKind::kReLU ? mid : gelu(mid);
  if (compute_dtype_ == DType::kF32) {
    gemm_bias(act, w2_, b2_, out);
  } else {
    gemm_bias_act_q(act, qview(qw2_), b2_, GemmEpilogue::kBias, out);
  }
}

void ExpertFFN::backward(const Tensor& dy, const Tensor& x, const Tensor& mid,
                         Tensor& dx) {
  MPIPE_EXPECTS(dy.dim(0) == x.dim(0), "row count mismatch");
  // Recover the post-activation values FFN2 consumed.
  Tensor act = activation_ == ActivationKind::kReLU ? mid : gelu(mid);
  // dW2 += act^T dy and db2 += colsum(dy), fused into one pass over the
  // packed dy panels; dAct = dy W2^T.
  gemm_tn_bias_grad(act, dy, gw2_, gb2_, /*accumulate=*/true);
  Tensor dact(Shape{x.dim(0), d_hidden()});
  if (compute_dtype_ == DType::kF32) {
    gemm_nt(dy, w2_, dact);
  } else {
    gemm_nt_q(dy, qview(qw2_), dact);
  }
  // Through the activation (ReLU's mask works on post-activation values;
  // GELU differentiates at the stashed pre-activation).
  Tensor dpre = activation_ == ActivationKind::kReLU
                    ? relu_backward(dact, mid)
                    : gelu_backward(dact, mid);
  // dW1 += x^T dpre and db1 += colsum(dpre), same fused pass; dx = dpre W1^T.
  gemm_tn_bias_grad(x, dpre, gw1_, gb1_, /*accumulate=*/true);
  if (compute_dtype_ == DType::kF32) {
    gemm_nt(dpre, w1_, dx);
  } else {
    gemm_nt_q(dpre, qview(qw1_), dx);
  }
}

void ExpertFFN::zero_grad() {
  gw1_.zero();
  gb1_.zero();
  gw2_.zero();
  gb2_.zero();
}

std::vector<Tensor*> ExpertFFN::parameters() {
  return {&w1_, &b1_, &w2_, &b2_};
}

std::vector<Tensor*> ExpertFFN::gradients() {
  return {&gw1_, &gb1_, &gw2_, &gb2_};
}

}  // namespace mpipe::moe
