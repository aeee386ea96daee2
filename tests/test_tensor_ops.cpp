// GEMM variants against a naive reference (parameterized size sweep) and
// finite-difference checks for every activation / row-wise op backward.

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "common/check.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c(Shape{a.dim(0), b.dim(1)});
  for (std::int64_t i = 0; i < a.dim(0); ++i) {
    for (std::int64_t j = 0; j < b.dim(1); ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < a.dim(1); ++k) {
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

struct GemmSize {
  std::int64_t m, k, n;
};

class GemmSweep : public testing::TestWithParam<GemmSize> {};

TEST_P(GemmSweep, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 10 + n);
  Tensor a(Shape{m, k}), b(Shape{k, n});
  init_normal(a, rng, 1.0f);
  init_normal(b, rng, 1.0f);
  Tensor expected = naive_matmul(a, b);
  Tensor c(Shape{m, n});
  gemm(a, b, c);
  EXPECT_LT(max_abs_diff(c, expected), 1e-3f);
}

TEST_P(GemmSweep, TransposedVariantsConsistent) {
  const auto [m, k, n] = GetParam();
  Rng rng(7);
  Tensor a(Shape{m, k}), bt(Shape{n, k}), at(Shape{k, m}), b(Shape{k, n});
  init_normal(a, rng, 1.0f);
  init_normal(bt, rng, 1.0f);
  init_normal(at, rng, 1.0f);
  init_normal(b, rng, 1.0f);

  // gemm_nt(a, bt) == a @ bt^T
  Tensor c1(Shape{m, n});
  gemm_nt(a, bt, c1);
  Tensor bt_T(Shape{k, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < k; ++j) bt_T.at(j, i) = bt.at(i, j);
  }
  EXPECT_LT(max_abs_diff(c1, naive_matmul(a, bt_T)), 1e-3f);

  // gemm_tn(at, b) == at^T @ b
  Tensor c2(Shape{m, n});
  gemm_tn(at, b, c2);
  Tensor at_T(Shape{m, k});
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < m; ++j) at_T.at(j, i) = at.at(i, j);
  }
  EXPECT_LT(max_abs_diff(c2, naive_matmul(at_T, b)), 1e-3f);
}

TEST_P(GemmSweep, AccumulateAddsOntoC) {
  const auto [m, k, n] = GetParam();
  Rng rng(11);
  Tensor a(Shape{m, k}), b(Shape{k, n});
  init_normal(a, rng, 1.0f);
  init_normal(b, rng, 1.0f);
  Tensor c = Tensor::full(Shape{m, n}, 1.0f);
  Tensor expected = naive_matmul(a, b);
  gemm(a, b, c, /*accumulate=*/true);
  for (std::int64_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c.at(i), expected.at(i) + 1.0f, 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmSweep,
    testing::Values(GemmSize{1, 1, 1}, GemmSize{3, 5, 7},
                    GemmSize{16, 16, 16}, GemmSize{65, 129, 33},
                    GemmSize{128, 64, 130}, GemmSize{1, 300, 2},
                    GemmSize{200, 1, 200}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "k" +
             std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

TEST(GemmErrors, ShapeMismatchesThrow) {
  Tensor a(Shape{2, 3}), b(Shape{4, 5}), c(Shape{2, 5});
  EXPECT_THROW(gemm(a, b, c), CheckError);
  Tensor b2(Shape{3, 5}), c2(Shape{3, 5});
  EXPECT_THROW(gemm(a, b2, c2), CheckError);
}

TEST(GemmFlops, Formula) {
  EXPECT_EQ(gemm_flops(2, 3, 4), 48u);
  EXPECT_EQ(gemm_flops(1, 1, 1), 2u);
}

// ---- finite-difference helpers ---------------------------------------------

template <typename Fwd, typename Bwd>
void check_elementwise_grad(Fwd fwd, Bwd bwd, float x0) {
  Tensor x = Tensor::full(Shape{1}, x0);
  Tensor y = fwd(x);
  Tensor dy = Tensor::full(y.shape(), 1.0f);
  Tensor dx = bwd(dy, x);
  const float h = 1e-3f;
  Tensor xp = Tensor::full(Shape{1}, x0 + h);
  Tensor xm = Tensor::full(Shape{1}, x0 - h);
  const float numeric = (fwd(xp).at(0) - fwd(xm).at(0)) / (2 * h);
  EXPECT_NEAR(dx.at(0), numeric, 5e-3f) << "at x=" << x0;
}

class ActivationGrad : public testing::TestWithParam<float> {};

TEST_P(ActivationGrad, ReluFiniteDifference) {
  check_elementwise_grad([](const Tensor& x) { return relu(x); },
                         [](const Tensor& dy, const Tensor& x) {
                           return relu_backward(dy, x);
                         },
                         GetParam());
}

TEST_P(ActivationGrad, GeluFiniteDifference) {
  check_elementwise_grad([](const Tensor& x) { return gelu(x); },
                         [](const Tensor& dy, const Tensor& x) {
                           return gelu_backward(dy, x);
                         },
                         GetParam());
}

INSTANTIATE_TEST_SUITE_P(Points, ActivationGrad,
                         testing::Values(-2.0f, -0.5f, 0.3f, 1.0f, 3.0f));

TEST(SoftmaxRows, RowsSumToOneAndOrderPreserved) {
  Rng rng(5);
  Tensor x(Shape{6, 9});
  init_normal(x, rng, 2.0f);
  Tensor y = softmax_rows(x);
  for (std::int64_t r = 0; r < 6; ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < 9; ++c) sum += y.at(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  const auto arg_x = argmax_rows(x);
  const auto arg_y = argmax_rows(y);
  EXPECT_EQ(arg_x, arg_y);
}

TEST(SoftmaxRows, NumericallyStableForLargeLogits) {
  Tensor x(Shape{1, 3});
  x.at(0, 0) = 1000.0f;
  x.at(0, 1) = 999.0f;
  x.at(0, 2) = -1000.0f;
  Tensor y = softmax_rows(x);
  EXPECT_GT(y.at(0, 0), y.at(0, 1));
  EXPECT_NEAR(y.at(0, 0) + y.at(0, 1) + y.at(0, 2), 1.0f, 1e-5f);
  EXPECT_FALSE(std::isnan(y.at(0, 0)));
}

TEST(SoftmaxRows, BackwardFiniteDifference) {
  Rng rng(8);
  Tensor x(Shape{2, 4});
  init_normal(x, rng, 1.0f);
  Tensor y = softmax_rows(x);
  Tensor dy(Shape{2, 4});
  init_normal(dy, rng, 1.0f);
  Tensor dx = softmax_rows_backward(dy, y);
  const float h = 1e-3f;
  for (std::int64_t i = 0; i < 8; ++i) {
    Tensor xp = x.clone();
    xp.at(i) += h;
    Tensor xm = x.clone();
    xm.at(i) -= h;
    double fp = 0.0, fm = 0.0;
    Tensor yp = softmax_rows(xp), ym = softmax_rows(xm);
    for (std::int64_t j = 0; j < 8; ++j) {
      fp += static_cast<double>(dy.at(j)) * yp.at(j);
      fm += static_cast<double>(dy.at(j)) * ym.at(j);
    }
    EXPECT_NEAR(dx.at(i), (fp - fm) / (2 * h), 5e-3) << "coordinate " << i;
  }
}

TEST(BiasOps, AddAndBackward) {
  Tensor x(Shape{3, 2});
  Tensor bias(Shape{2});
  bias.at(0) = 1.0f;
  bias.at(1) = -2.0f;
  add_bias_(x, bias);
  EXPECT_FLOAT_EQ(x.at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.at(0, 1), -2.0f);
  Tensor dy = Tensor::full(Shape{3, 2}, 2.0f);
  Tensor db = bias_backward(dy);
  EXPECT_FLOAT_EQ(db.at(0), 6.0f);
  EXPECT_FLOAT_EQ(db.at(1), 6.0f);
}

TEST(RowScale, ScalesEachRow) {
  Tensor x = Tensor::full(Shape{2, 3}, 1.0f);
  scale_rows_(x, {2.0f, 0.5f});
  EXPECT_FLOAT_EQ(x.at(0, 2), 2.0f);
  EXPECT_FLOAT_EQ(x.at(1, 0), 0.5f);
  EXPECT_THROW(scale_rows_(x, {1.0f}), CheckError);
}

TEST(MseLoss, ValueAndGradient) {
  Tensor pred = Tensor::full(Shape{2, 2}, 2.0f);
  Tensor target = Tensor::full(Shape{2, 2}, 1.0f);
  EXPECT_NEAR(mse_loss(pred, target), 1.0, 1e-6);
  Tensor g = mse_loss_grad(pred, target);
  EXPECT_NEAR(g.at(0), 2.0 / 4.0, 1e-6);

  const float h = 1e-3f;
  Tensor p2 = pred.clone();
  p2.at(3) += h;
  const double numeric = (mse_loss(p2, target) - mse_loss(pred, target)) / h;
  EXPECT_NEAR(g.at(3), numeric, 1e-3);
}

TEST(ElementwiseOps, AddAndMul) {
  Tensor a = Tensor::full(Shape{3}, 1.0f);
  Tensor b = Tensor::full(Shape{3}, 2.0f);
  add_(a, b);
  EXPECT_FLOAT_EQ(a.at(0), 3.0f);
  Tensor c = mul(a, b);
  EXPECT_FLOAT_EQ(c.at(1), 6.0f);
  Tensor d = scale(b, -1.0f);
  EXPECT_FLOAT_EQ(d.at(2), -2.0f);
}

}  // namespace
}  // namespace mpipe
