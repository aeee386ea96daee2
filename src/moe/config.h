#pragma once
/// \file config.h
/// The expert FFN's activation function (M = d_model, H = d_hidden,
/// B = tokens per device, as in the paper's Table I).

#include <cstdint>

namespace mpipe::moe {

enum class ActivationKind : std::uint8_t {
  /// ReLU applied in place — matches the paper's memory formulation where
  /// T_M stores the post-activation middle tensor only (Eq 2).
  kReLU,
  /// tanh-approximated GELU. Its backward needs the pre-activation, so T_M
  /// stashes that instead and FFN2 applies GELU on the fly; the stash stays
  /// B*H (ExpertFFN's stash convention, moe/expert.cpp).
  kGELU,
};

}  // namespace mpipe::moe
