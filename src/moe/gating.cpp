#include "moe/gating.h"

#include "common/check.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"

namespace mpipe::moe {

GatingNetwork::GatingNetwork(std::int64_t d_model, int num_experts, Rng& rng)
    : w_(Shape{d_model, num_experts}), w_grad_(Shape{d_model, num_experts}) {
  MPIPE_EXPECTS(d_model > 0 && num_experts > 0, "bad gating dimensions");
  init_normal(w_, rng, 0.02f);
}

GatingForward GatingNetwork::forward(const Tensor& x) const {
  MPIPE_EXPECTS(x.shape().rank() == 2 && x.dim(1) == d_model(),
                "gating input must be (B, M)");
  GatingForward out;
  Tensor logits = matmul(x, w_);
  out.probs = softmax_rows(logits);
  out.expert_of = argmax_rows(out.probs);
  const std::int64_t b = x.dim(0);
  out.gate.resize(static_cast<std::size_t>(b));
  for (std::int64_t t = 0; t < b; ++t) {
    out.gate[static_cast<std::size_t>(t)] =
        out.probs.at(t, out.expert_of[static_cast<std::size_t>(t)]);
  }
  return out;
}

Tensor GatingNetwork::backward(const Tensor& x, const GatingForward& fwd,
                               const std::vector<float>& dgate) {
  const std::int64_t b = x.dim(0);
  MPIPE_EXPECTS(static_cast<std::int64_t>(dgate.size()) == b,
                "dgate length mismatch");
  // d(probs): only the winning column receives the gate gradient.
  Tensor dprobs(fwd.probs.shape());
  for (std::int64_t t = 0; t < b; ++t) {
    dprobs.at(t, fwd.expert_of[static_cast<std::size_t>(t)]) =
        dgate[static_cast<std::size_t>(t)];
  }
  Tensor dlogits = softmax_rows_backward(dprobs, fwd.probs);
  // dW += X^T @ dlogits; dX = dlogits @ W^T.
  gemm_tn(x, dlogits, w_grad_, /*accumulate=*/true);
  Tensor dx(Shape{b, d_model()});
  gemm_nt(dlogits, w_, dx);
  return dx;
}

}  // namespace mpipe::moe
