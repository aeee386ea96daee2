// Backward-path numerics: the fused dW+db GEMM epilogue against a scalar
// reference and finite differences, layer-norm backward, and softmax
// backward — all on ragged shapes, including the rows = 0 and rows = 1
// expert panels the dispatcher produces under routing skew.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "moe/dispatcher.h"
#include "moe/expert.h"
#include "moe/layer_norm.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

/// Scalar reference for the fused call: dW (+)= A^T B with fp64
/// accumulation, db += colsum(B).
void reference_tn_bias_grad(const Tensor& a, const Tensor& b, Tensor& c,
                            Tensor& bias_grad, bool accumulate) {
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = accumulate ? c.at(i, j) : 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.at(kk, i)) * b.at(kk, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  for (std::int64_t j = 0; j < n; ++j) {
    double acc = bias_grad.at(j);
    for (std::int64_t kk = 0; kk < k; ++kk) acc += b.at(kk, j);
    bias_grad.at(j) = static_cast<float>(acc);
  }
}

void expect_close(const Tensor& got, const Tensor& want, float rtol = 1e-3f,
                  float atol = 1e-4f) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(allclose(got, want, rtol, atol))
      << "max |diff| = " << max_abs_diff(got, want);
}

struct PanelShape {
  std::int64_t rows, m, n;
};

class FusedWgrad : public testing::TestWithParam<PanelShape> {};

TEST_P(FusedWgrad, MatchesScalarReference) {
  const auto [rows, m, n] = GetParam();
  for (bool accumulate : {false, true}) {
    Rng rng(21);
    Tensor a(Shape{rows, m}), b(Shape{rows, n});
    Tensor c(Shape{m, n}), bias(Shape{n});
    init_normal(a, rng);
    init_normal(b, rng);
    init_normal(c, rng);
    init_normal(bias, rng);
    Tensor c_ref = c.clone();
    Tensor bias_ref = bias.clone();
    gemm_tn_bias_grad(a, b, c, bias, accumulate);
    reference_tn_bias_grad(a, b, c_ref, bias_ref, accumulate);
    expect_close(c, c_ref);
    expect_close(bias, bias_ref);
  }
}

// Ragged panels around every blocking boundary (MR = 8, NR = 16,
// MC = 64, NC = 128, KC = 256), plus the skew edge cases: an expert that
// received no tokens (rows = 0) and exactly one token (rows = 1).
INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedWgrad,
    testing::Values(PanelShape{0, 5, 7}, PanelShape{1, 5, 7},
                    PanelShape{1, 64, 128}, PanelShape{3, 17, 31},
                    PanelShape{8, 16, 16}, PanelShape{13, 65, 129},
                    PanelShape{64, 64, 128}, PanelShape{100, 70, 150},
                    PanelShape{257, 33, 140}, PanelShape{300, 129, 257}),
    [](const auto& info) {
      std::string name = "r";
      name += std::to_string(info.param.rows);
      name += "m";
      name += std::to_string(info.param.m);
      name += "n";
      name += std::to_string(info.param.n);
      return name;
    });

TEST(FusedWgrad, ZeroRowPanelLeavesGradientsAlone) {
  // rows = 0 with accumulate must keep both dW and db bit-identical.
  Rng rng(3);
  Tensor a(Shape{0, 9}), b(Shape{0, 11});
  Tensor c(Shape{9, 11}), bias(Shape{11});
  init_normal(c, rng);
  init_normal(bias, rng);
  const Tensor c0 = c.clone();
  const Tensor bias0 = bias.clone();
  gemm_tn_bias_grad(a, b, c, bias, /*accumulate=*/true);
  EXPECT_EQ(max_abs_diff(c, c0), 0.0f);
  EXPECT_EQ(max_abs_diff(bias, bias0), 0.0f);
  // Without accumulate the product is zero and db still untouched-by-sum.
  gemm_tn_bias_grad(a, b, c, bias, /*accumulate=*/false);
  EXPECT_EQ(c.abs_max(), 0.0f);
  EXPECT_EQ(max_abs_diff(bias, bias0), 0.0f);
}

/// d(sum(dy * f(x)))/dx_i by central differences.
template <typename Fwd>
double finite_diff(const Fwd& fwd, const Tensor& x, const Tensor& dy,
                   std::int64_t idx, float h) {
  Tensor xp = x.clone();
  xp.at(idx) += h;
  Tensor xm = x.clone();
  xm.at(idx) -= h;
  const Tensor yp = fwd(xp), ym = fwd(xm);
  double acc = 0.0;
  for (std::int64_t i = 0; i < dy.numel(); ++i) {
    acc += static_cast<double>(dy.at(i)) * (yp.at(i) - ym.at(i));
  }
  return acc / (2.0 * h);
}

class ExpertBackward : public testing::TestWithParam<moe::ActivationKind> {};

TEST_P(ExpertBackward, FusedGradsMatchFiniteDifferences) {
  Rng rng(31);
  moe::ExpertFFN expert(10, 14, GetParam(), rng);
  for (std::int64_t rows : {1, 3, 17}) {
    Tensor x(Shape{rows, 10});
    init_normal(x, rng);
    Tensor mid;
    Tensor y = expert.forward(x, mid);
    Tensor dy(y.shape());
    init_normal(dy, rng);
    expert.zero_grad();
    Tensor dx = expert.backward(dy, x, mid);

    auto fwd_x = [&](const Tensor& xin) {
      Tensor m2;
      return expert.forward(xin, m2);
    };
    const float h = 1e-2f;
    for (std::int64_t idx : {std::int64_t{0}, x.numel() / 2,
                             x.numel() - 1}) {
      EXPECT_NEAR(dx.at(idx), finite_diff(fwd_x, x, dy, idx, h), 5e-2)
          << "dx[" << idx << "] rows=" << rows;
    }
    // Weight and (fused) bias grads against parameter perturbation.
    auto params = expert.parameters();
    auto grads = expert.gradients();
    for (std::size_t p = 0; p < params.size(); ++p) {
      Tensor& w = *params[p];
      const Tensor& g = *grads[p];
      auto fwd_w = [&](const Tensor& win) {
        const Tensor saved = w.clone();
        for (std::int64_t i = 0; i < w.numel(); ++i) w.at(i) = win.at(i);
        Tensor m2;
        Tensor out = expert.forward(x, m2);
        for (std::int64_t i = 0; i < w.numel(); ++i) w.at(i) = saved.at(i);
        return out;
      };
      for (std::int64_t idx : {std::int64_t{0}, w.numel() - 1}) {
        EXPECT_NEAR(g.at(idx), finite_diff(fwd_w, w, dy, idx, h), 5e-2)
            << "param " << p << " idx " << idx << " rows=" << rows;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, ExpertBackward,
                         testing::Values(moe::ActivationKind::kReLU,
                                         moe::ActivationKind::kGELU),
                         [](const auto& info) {
                           return info.param == moe::ActivationKind::kReLU
                                      ? "ReLU"
                                      : "GELU";
                         });

TEST(ExpertBackward, EmptyAndSingleRowSpans) {
  Rng rng(41);
  moe::ExpertFFN expert(6, 8, moe::ActivationKind::kReLU, rng);
  Tensor in(Shape{4, 6}), mid_buf(Shape{4, 8}), out_buf(Shape{4, 6});
  Tensor dout(Shape{4, 6}), din(Shape{4, 6});
  init_normal(in, rng);
  init_normal(dout, rng);
  // The stages on row views of the buffers, as the pipeline runs them.
  auto stages = [&](std::int64_t begin, std::int64_t end) {
    Tensor mid = mid_buf.view_rows(begin, end);
    Tensor out = out_buf.view_rows(begin, end);
    Tensor dx = din.view_rows(begin, end);
    expert.forward_mid(in.view_rows(begin, end), mid);
    expert.forward_out(mid, out);
    expert.zero_grad();
    expert.backward(dout.view_rows(begin, end), in.view_rows(begin, end),
                    mid, dx);
  };

  // Empty range: the stages must be no-ops on buffers and grads.
  const Tensor din0 = din.clone();
  stages(2, 2);
  EXPECT_EQ(max_abs_diff(din, din0), 0.0f);
  EXPECT_EQ(out_buf.abs_max(), 0.0f);
  for (Tensor* g : expert.gradients()) EXPECT_EQ(g->abs_max(), 0.0f);

  // One single-row range equals the dense backward on that row.
  stages(2, 3);
  Tensor x1 = in.slice_rows(2, 3);
  Tensor dy1 = dout.slice_rows(2, 3);
  moe::ExpertFFN ref(6, 8, moe::ActivationKind::kReLU, rng);
  // Same weights: copy via parameters.
  auto wsrc = expert.parameters();
  auto wdst = ref.parameters();
  for (std::size_t i = 0; i < wsrc.size(); ++i) {
    for (std::int64_t j = 0; j < wsrc[i]->numel(); ++j) {
      wdst[i]->at(j) = wsrc[i]->at(j);
    }
  }
  Tensor mid1;
  ref.forward(x1, mid1);
  ref.zero_grad();
  Tensor dx1 = ref.backward(dy1, x1, mid1);
  expect_close(din.slice_rows(2, 3), dx1, 1e-5f, 1e-6f);
  auto g1 = expert.gradients();
  auto g2 = ref.gradients();
  for (std::size_t i = 0; i < g1.size(); ++i) {
    expect_close(*g1[i], *g2[i], 1e-5f, 1e-6f);
  }
}

TEST(LayerNormBackward, FiniteDifferencesOnRaggedShapes) {
  Rng rng(51);
  for (std::int64_t rows : {1, 3}) {
    for (std::int64_t dim : {1, 5, 8, 13}) {
      moe::LayerNorm ln(dim);
      init_normal(ln.gamma(), rng, 1.0f);
      init_normal(ln.beta(), rng, 0.5f);
      Tensor x(Shape{rows, dim});
      init_normal(x, rng);
      auto fwd = ln.forward(x);
      Tensor dy(fwd.output.shape());
      init_normal(dy, rng);
      ln.zero_grad();
      Tensor dx = ln.backward(dy, fwd);
      auto fwd_fn = [&](const Tensor& xin) { return ln.forward(xin).output; };
      const float h = 1e-3f;
      for (std::int64_t idx = 0; idx < x.numel();
           idx += std::max<std::int64_t>(1, x.numel() / 4)) {
        EXPECT_NEAR(dx.at(idx), finite_diff(fwd_fn, x, dy, idx, h), 3e-2)
            << "rows=" << rows << " dim=" << dim << " idx=" << idx;
      }
      // gamma/beta grads: direct formulas, fp64.
      for (std::int64_t c = 0; c < dim; ++c) {
        double gg = 0.0, bg = 0.0;
        for (std::int64_t r = 0; r < rows; ++r) {
          gg += static_cast<double>(dy.at(r, c)) * fwd.normalized.at(r, c);
          bg += dy.at(r, c);
        }
        EXPECT_NEAR(ln.gamma_grad().at(c), gg, 1e-3) << "dim=" << dim;
        EXPECT_NEAR(ln.beta_grad().at(c), bg, 1e-3) << "dim=" << dim;
      }
    }
  }
}

TEST(SoftmaxBackward, FiniteDifferencesOnRaggedShapes) {
  Rng rng(61);
  for (std::int64_t rows : {1, 4}) {
    for (std::int64_t cols : {1, 2, 7, 8, 9, 33}) {
      Tensor x(Shape{rows, cols});
      init_normal(x, rng);
      Tensor y = softmax_rows(x);
      Tensor dy(y.shape());
      init_normal(dy, rng);
      Tensor dx = softmax_rows_backward(dy, y);
      auto fwd_fn = [](const Tensor& xin) { return softmax_rows(xin); };
      const float h = 1e-3f;
      for (std::int64_t idx = 0; idx < x.numel();
           idx += std::max<std::int64_t>(1, x.numel() / 5)) {
        EXPECT_NEAR(dx.at(idx), finite_diff(fwd_fn, x, dy, idx, h), 2e-2)
            << "rows=" << rows << " cols=" << cols << " idx=" << idx;
      }
    }
  }
}

}  // namespace
}  // namespace mpipe
