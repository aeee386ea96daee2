#pragma once
/// \file gating.h
/// Top-1 softmax gating network (Switch-style). Each token picks the
/// argmax expert; the layer output is scaled by the winning probability so
/// gradients flow into the router. Backward is exact (softmax backward
/// through the selected logit), finite-difference tested.

#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace mpipe::moe {

struct GatingForward {
  Tensor probs;                          ///< (B, E) softmax router output
  std::vector<std::int64_t> expert_of;   ///< per-token winning expert
  std::vector<float> gate;               ///< per-token winning probability
};

class GatingNetwork {
 public:
  GatingNetwork(std::int64_t d_model, int num_experts, Rng& rng);

  /// Routes a (B, M) token batch.
  GatingForward forward(const Tensor& x) const;

  /// Backward from per-token gate gradients. `x` is the forward input.
  /// Accumulates the router weight gradient and returns dX (B, M).
  Tensor backward(const Tensor& x, const GatingForward& fwd,
                  const std::vector<float>& dgate);

  Tensor& weight() { return w_; }
  const Tensor& weight() const { return w_; }
  Tensor& weight_grad() { return w_grad_; }
  void zero_grad() { w_grad_.zero(); }

  std::int64_t d_model() const { return w_.dim(0); }
  int num_experts() const { return static_cast<int>(w_.dim(1)); }

 private:
  Tensor w_;       ///< (M, E)
  Tensor w_grad_;  ///< (M, E)
};

}  // namespace mpipe::moe
