// Gating / expert / LayerNorm / attention numerics, including
// finite-difference gradient checks and row-indexed vs dense equivalence.

#include <gtest/gtest.h>

#include "common/check.h"

#include "moe/attention.h"
#include "moe/expert.h"
#include "moe/gating.h"
#include "moe/layer_norm.h"
#include "moe/moe_block.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"

namespace mpipe::moe {
namespace {

using mpipe::CheckError;

TEST(Gating, ProbabilitiesAndArgmaxConsistent) {
  Rng rng(2);
  GatingNetwork gate(16, 8, rng);
  Tensor x = random_tokens(12, 16, rng);
  const auto fwd = gate.forward(x);
  ASSERT_EQ(fwd.expert_of.size(), 12u);
  for (std::int64_t t = 0; t < 12; ++t) {
    double sum = 0.0;
    float mx = 0.0f;
    for (int e = 0; e < 8; ++e) {
      sum += fwd.probs.at(t, e);
      mx = std::max(mx, fwd.probs.at(t, e));
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_FLOAT_EQ(fwd.gate[static_cast<std::size_t>(t)], mx);
    EXPECT_GE(fwd.gate[static_cast<std::size_t>(t)], 1.0f / 8.0f - 1e-6f);
  }
}

TEST(Gating, BackwardFiniteDifference) {
  Rng rng(6);
  GatingNetwork gate(6, 4, rng);
  Tensor x = random_tokens(5, 6, rng);
  auto fwd = gate.forward(x);
  std::vector<float> dgate(5, 1.0f);
  Tensor dx = gate.backward(x, fwd, dgate);

  // Perturb one input coordinate; loss = sum of winning gate values.
  // (Perturbations small enough not to flip the argmax.)
  const float h = 1e-4f;
  auto loss = [&](const Tensor& input) {
    auto f = gate.forward(input);
    double acc = 0.0;
    for (std::int64_t t = 0; t < 5; ++t) {
      // Use the ORIGINAL winner so the objective stays differentiable.
      acc += f.probs.at(t, fwd.expert_of[static_cast<std::size_t>(t)]);
    }
    return acc;
  };
  for (std::int64_t idx : {0, 7, 19}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    const double numeric = (loss(xp) - loss(xm)) / (2 * h);
    EXPECT_NEAR(dx.at(idx), numeric, 1e-2) << "idx " << idx;
  }
}

TEST(Gating, LoadBalanceLossBoundsAndSkewSensitivity) {
  Rng rng(7);
  GatingNetwork gate(8, 4, rng);
  // Balanced: loss ~ 1; worst case (all to one expert): approaches E.
  GatingForward balanced;
  balanced.probs = Tensor::full(Shape{8, 4}, 0.25f);
  balanced.expert_of = {0, 1, 2, 3, 0, 1, 2, 3};
  balanced.gate.assign(8, 0.25f);
  EXPECT_NEAR(gate.load_balance_loss(balanced), 1.0, 1e-5);

  GatingForward skewed;
  skewed.probs = Tensor(Shape{8, 4});
  for (std::int64_t t = 0; t < 8; ++t) skewed.probs.at(t, 0) = 1.0f;
  skewed.expert_of.assign(8, 0);
  skewed.gate.assign(8, 1.0f);
  EXPECT_NEAR(gate.load_balance_loss(skewed), 4.0, 1e-5);
}

TEST(Expert, ForwardMatchesManualMath) {
  Rng rng(3);
  ExpertFFN expert(4, 6, ActivationKind::kReLU, rng);
  Tensor x = random_tokens(3, 4, rng);
  Tensor mid;
  Tensor y = expert.forward(x, mid);
  EXPECT_EQ(y.shape(), (Shape{3, 4}));
  EXPECT_EQ(mid.shape(), (Shape{3, 6}));
  // Middle is post-ReLU: non-negative.
  for (std::int64_t i = 0; i < mid.numel(); ++i) {
    EXPECT_GE(mid.at(i), 0.0f);
  }
}

TEST(Expert, BackwardFiniteDifference) {
  Rng rng(12);
  ExpertFFN expert(5, 7, ActivationKind::kReLU, rng);
  Tensor x = random_tokens(4, 5, rng);
  Tensor mid;
  Tensor y = expert.forward(x, mid);
  Tensor dy = Tensor::full(y.shape(), 1.0f);
  expert.zero_grad();
  Tensor dx = expert.backward(dy, x, mid);

  auto loss = [&](const Tensor& input) {
    Tensor m;
    return expert.forward(input, m).sum();
  };
  const float h = 1e-3f;
  for (std::int64_t idx : {0, 9, 19}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    const double numeric = (loss(xp) - loss(xm)) / (2 * h);
    EXPECT_NEAR(dx.at(idx), numeric, 2e-2) << "idx " << idx;
  }
}

TEST(Expert, WeightGradFiniteDifference) {
  Rng rng(13);
  ExpertFFN expert(4, 5, ActivationKind::kReLU, rng);
  Tensor x = random_tokens(3, 4, rng);
  Tensor mid;
  Tensor y = expert.forward(x, mid);
  expert.zero_grad();
  expert.backward(Tensor::full(y.shape(), 1.0f), x, mid);
  Tensor* w1 = expert.parameters()[0];
  Tensor* gw1 = expert.gradients()[0];
  const float h = 1e-3f;
  for (std::int64_t idx : {0, 11}) {
    const float saved = w1->at(idx);
    w1->at(idx) = saved + h;
    Tensor m1;
    const double lp = expert.forward(x, m1).sum();
    w1->at(idx) = saved - h;
    Tensor m2;
    const double lm = expert.forward(x, m2).sum();
    w1->at(idx) = saved;
    EXPECT_NEAR(gw1->at(idx), (lp - lm) / (2 * h), 2e-2) << "idx " << idx;
  }
}

TEST(Expert, RowViewStagesMatchDense) {
  Rng rng(20);
  ExpertFFN expert(4, 8, ActivationKind::kReLU, rng);
  Tensor buf = random_tokens(6, 4, rng);
  Tensor mid_buf(Shape{6, 8});
  Tensor out_buf(Shape{6, 4});
  // Rows 1..3 as one expert's contiguous receive rows.
  Tensor mid = mid_buf.view_rows(1, 4);
  Tensor out = out_buf.view_rows(1, 4);
  expert.forward_mid(buf.view_rows(1, 4), mid);
  expert.forward_out(mid, out);

  Tensor dense_mid;
  const Tensor dense_out = expert.forward(buf.slice_rows(1, 4), dense_mid);
  EXPECT_FLOAT_EQ(max_abs_diff(mid_buf.slice_rows(1, 4), dense_mid), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(out_buf.slice_rows(1, 4), dense_out), 0.0f);
  // Untouched rows stay zero.
  EXPECT_FLOAT_EQ(out_buf.slice_rows(0, 1).abs_max(), 0.0f);
  EXPECT_FLOAT_EQ(out_buf.slice_rows(4, 6).abs_max(), 0.0f);
  EXPECT_FLOAT_EQ(mid_buf.slice_rows(4, 6).abs_max(), 0.0f);

  // Each output row depends on its own input row only: a single-row view
  // matches the same row of the wider one.
  Tensor out_row(Shape{1, 4});
  Tensor mid_row(Shape{1, 8});
  expert.forward_mid(buf.view_rows(2, 3), mid_row);
  expert.forward_out(mid_row, out_row);
  EXPECT_LT(max_abs_diff(out_row, out_buf.slice_rows(2, 3)), 1e-6f);
}

TEST(LayerNorm, NormalisesRows) {
  Rng rng(4);
  LayerNorm ln(8);
  Tensor x = random_tokens(5, 8, rng);
  const auto fwd = ln.forward(x);
  for (std::int64_t r = 0; r < 5; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t c = 0; c < 8; ++c) mean += fwd.normalized.at(r, c);
    mean /= 8.0;
    for (std::int64_t c = 0; c < 8; ++c) {
      const double d = fwd.normalized.at(r, c) - mean;
      var += d * d;
    }
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, BackwardFiniteDifference) {
  Rng rng(14);
  LayerNorm ln(6);
  init_normal(ln.gamma(), rng, 1.0f);
  Tensor x = random_tokens(3, 6, rng);
  auto fwd = ln.forward(x);
  Tensor dy(fwd.output.shape());
  init_normal(dy, rng, 1.0f);
  ln.zero_grad();
  Tensor dx = ln.backward(dy, fwd);
  const float h = 1e-3f;
  auto loss = [&](const Tensor& input) {
    auto f = ln.forward(input);
    double acc = 0.0;
    for (std::int64_t i = 0; i < f.output.numel(); ++i) {
      acc += static_cast<double>(dy.at(i)) * f.output.at(i);
    }
    return acc;
  };
  for (std::int64_t idx : {0, 10, 17}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    EXPECT_NEAR(dx.at(idx), (loss(xp) - loss(xm)) / (2 * h), 2e-2);
  }
}

class AttentionGrad : public testing::TestWithParam<bool> {};

TEST_P(AttentionGrad, BackwardFiniteDifference) {
  const bool causal = GetParam();
  Rng rng(15);
  MultiHeadAttention attn(8, 2, causal, rng);
  Tensor x = random_tokens(5, 8, rng);
  auto fwd = attn.forward(x);
  Tensor dy(fwd.output.shape());
  init_normal(dy, rng, 1.0f);
  attn.zero_grad();
  Tensor dx = attn.backward(dy, x, fwd);
  auto loss = [&](const Tensor& input) {
    auto f = attn.forward(input);
    double acc = 0.0;
    for (std::int64_t i = 0; i < f.output.numel(); ++i) {
      acc += static_cast<double>(dy.at(i)) * f.output.at(i);
    }
    return acc;
  };
  const float h = 1e-3f;
  for (std::int64_t idx : {0, 13, 37}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    EXPECT_NEAR(dx.at(idx), (loss(xp) - loss(xm)) / (2 * h), 3e-2)
        << "causal=" << causal << " idx " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(Both, AttentionGrad, testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "causal" : "bidirectional";
                         });

TEST(Attention, CausalMaskBlocksFuture) {
  Rng rng(16);
  MultiHeadAttention attn(4, 1, /*causal=*/true, rng);
  Tensor x = random_tokens(4, 4, rng);
  auto fwd = attn.forward(x);
  // scores rows are post-softmax; upper triangle must be ~0.
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = r + 1; c < 4; ++c) {
      EXPECT_NEAR(fwd.scores.at(r, c), 0.0f, 1e-6f);
    }
  }
}

TEST(TransformerBlock, EndToEndGradCheck) {
  Rng rng(17);
  TransformerBlockPieces block(6, 2, false, rng);
  ExpertFFN ffn(6, 12, ActivationKind::kReLU, rng);
  Tensor x = random_tokens(4, 6, rng);

  auto run = [&](const Tensor& input, BlockForward* save_fwd,
                 Tensor* save_mid) {
    auto fwd = block.forward_pre_ffn(input);
    Tensor mid;
    Tensor ffn_out = ffn.forward(fwd.ffn_input, mid);
    Tensor y = TransformerBlockPieces::finish_forward(fwd, ffn_out);
    if (save_fwd != nullptr) *save_fwd = fwd;
    if (save_mid != nullptr) *save_mid = mid;
    return y;
  };

  BlockForward fwd;
  Tensor mid;
  Tensor y = run(x, &fwd, &mid);
  Tensor dy(y.shape());
  init_normal(dy, rng, 1.0f);
  block.zero_grad();
  ffn.zero_grad();
  Tensor d_ffn_in = ffn.backward(dy, fwd.ffn_input, mid);
  Tensor dx = block.backward(dy, d_ffn_in, x, fwd);

  auto loss = [&](const Tensor& input) {
    Tensor out = run(input, nullptr, nullptr);
    double acc = 0.0;
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      acc += static_cast<double>(dy.at(i)) * out.at(i);
    }
    return acc;
  };
  const float h = 1e-3f;
  for (std::int64_t idx : {0, 11, 23}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    EXPECT_NEAR(dx.at(idx), (loss(xp) - loss(xm)) / (2 * h), 5e-2)
        << "idx " << idx;
  }
}

}  // namespace
}  // namespace mpipe::moe
