// Tensor and Shape fundamentals: construction, accessors, slicing,
// reshaping, reductions, comparison helpers.

#include <gtest/gtest.h>

#include "common/check.h"
#include "tensor/random_init.h"
#include "tensor/tensor.h"

namespace mpipe {
namespace {

TEST(Shape, BasicsAndStrides) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.stride(0), 12);
  EXPECT_EQ(s.stride(1), 4);
  EXPECT_EQ(s.stride(2), 1);
  EXPECT_EQ(s.to_string(), "(2, 3, 4)");
}

TEST(Shape, EqualityAndWithDim) {
  Shape a{2, 3};
  Shape b{2, 3};
  Shape c{3, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.with_dim(0, 5), (Shape{5, 3}));
}

TEST(Shape, RejectsNegativeAndOutOfRange) {
  EXPECT_THROW(Shape({-1, 2}), CheckError);
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), CheckError);
  EXPECT_THROW(s.stride(5), CheckError);
}

TEST(Shape, ZeroDimensionGivesZeroNumel) {
  Shape s{0, 7};
  EXPECT_EQ(s.numel(), 0);
}

TEST(Tensor, ZeroInitialisedAndFill) {
  Tensor t(Shape{3, 4});
  EXPECT_EQ(t.sum(), 0.0);
  t.fill(2.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(t.sum()), 24.0f);
  EXPECT_EQ(t.nbytes(), 48u);
}

TEST(Tensor, CopiesShareStorageCloneDoesNot) {
  Tensor a(Shape{2, 2});
  Tensor shared = a;
  Tensor deep = a.clone();
  a.at(0, 0) = 5.0f;
  EXPECT_FLOAT_EQ(shared.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(deep.at(0, 0), 0.0f);
}

TEST(Tensor, CloneOfEmptyTensorKeepsItsShape) {
  const Tensor empty(Shape{0, 5});
  const Tensor copy = empty.clone();
  EXPECT_TRUE(copy.defined());
  EXPECT_EQ(copy.shape(), empty.shape());
  EXPECT_EQ(copy.numel(), 0);
}

TEST(Tensor, ZeroRowSliceAndCopyMoveNothing) {
  // A 0-row tensor owns no floats; slicing or copying 0 rows must not
  // hand its null data pointer to memcpy.
  Tensor t = Tensor::full(Shape{3, 4}, 2.0f);
  const Tensor none = t.slice_rows(1, 1);
  EXPECT_EQ(none.shape(), (Shape{0, 4}));
  EXPECT_EQ(Tensor(Shape{0, 4}).slice_rows(0, 0).numel(), 0);
  t.copy_into_rows(0, none);
  t.copy_into_rows(3, Tensor(Shape{0, 4}));
  EXPECT_FLOAT_EQ(static_cast<float>(t.sum()), 24.0f);
}

TEST(Tensor, RowViewSharesStorage) {
  Tensor t(Shape{4, 3});
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(i);
  }
  Tensor mid = t.view_rows(1, 3);
  EXPECT_EQ(mid.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(mid.at(0, 0), 3.0f);
  mid.at(1, 2) = -1.0f;
  EXPECT_FLOAT_EQ(t.at(2, 2), -1.0f);
  // Views of views keep the offset; reshape keeps it too.
  EXPECT_FLOAT_EQ(mid.view_rows(1, 2).at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(mid.reshape(Shape{6}).at(3), 6.0f);
  // 0-row views are legal anywhere in range, also at the end.
  for (std::int64_t r = 0; r <= 4; ++r) {
    EXPECT_EQ(t.view_rows(r, r).shape(), (Shape{0, 3}));
  }
  EXPECT_EQ(Tensor(Shape{0, 3}).view_rows(0, 0).numel(), 0);
  EXPECT_THROW(t.view_rows(3, 5), CheckError);
  EXPECT_THROW(t.view_rows(2, 1), CheckError);
  EXPECT_THROW(Tensor(Shape{12}).view_rows(0, 1), CheckError);
}

TEST(Tensor, SliceAndCopyRows) {
  Tensor t(Shape{4, 3});
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = 0; c < 3; ++c) {
      t.at(r, c) = static_cast<float>(10 * r + c);
    }
  }
  Tensor mid = t.slice_rows(1, 3);
  EXPECT_EQ(mid.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(mid.at(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(mid.at(1, 2), 22.0f);

  Tensor dst(Shape{4, 3});
  dst.copy_into_rows(2, mid);
  EXPECT_FLOAT_EQ(dst.at(2, 0), 10.0f);
  EXPECT_FLOAT_EQ(dst.at(3, 2), 22.0f);
  EXPECT_FLOAT_EQ(dst.at(0, 0), 0.0f);
}

TEST(Tensor, SliceBoundsChecked) {
  Tensor t(Shape{4, 3});
  EXPECT_THROW(t.slice_rows(3, 5), CheckError);
  EXPECT_THROW(t.slice_rows(-1, 2), CheckError);
  Tensor src(Shape{2, 3});
  EXPECT_THROW(t.copy_into_rows(3, src), CheckError);
  Tensor wrong(Shape{2, 4});
  EXPECT_THROW(t.copy_into_rows(0, wrong), CheckError);
}

TEST(Tensor, ReshapeSharesData) {
  Tensor t(Shape{2, 6});
  t.at(1, 5) = 9.0f;
  Tensor v = t.reshape(Shape{3, 4});
  EXPECT_FLOAT_EQ(v.at(2, 3), 9.0f);
  v.at(0, 0) = 7.0f;
  EXPECT_FLOAT_EQ(t.at(0, 0), 7.0f);
  EXPECT_THROW(t.reshape(Shape{5, 2}), CheckError);
}

TEST(Tensor, NullTensorThrowsOnAccess) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.data(), CheckError);
  EXPECT_THROW(t.fill(1.0f), CheckError);
}

TEST(Tensor, AbsMaxAndMaxAbsDiff) {
  Tensor a(Shape{3});
  a.at(0) = -5.0f;
  a.at(1) = 2.0f;
  EXPECT_FLOAT_EQ(a.abs_max(), 5.0f);
  Tensor b = a.clone();
  b.at(2) = 1.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 1.5f);
}

TEST(Tensor, AllcloseRespectsTolerances) {
  Tensor a = Tensor::full(Shape{4}, 1.0f);
  Tensor b = Tensor::full(Shape{4}, 1.0f + 1e-7f);
  EXPECT_TRUE(allclose(a, b));
  Tensor c = Tensor::full(Shape{4}, 1.1f);
  EXPECT_FALSE(allclose(a, c));
  EXPECT_FALSE(allclose(a, Tensor(Shape{5})));
}

TEST(RandomInit, DeterministicPerSeed) {
  Rng rng1(9), rng2(9);
  Tensor a(Shape{32});
  Tensor b(Shape{32});
  init_normal(a, rng1, 1.0f);
  init_normal(b, rng2, 1.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0f);
}

TEST(RandomInit, KaimingBoundsRespected) {
  Rng rng(3);
  Tensor w(Shape{64, 16});
  init_kaiming(w, rng, 64);
  const float bound = std::sqrt(6.0f / 64.0f);
  EXPECT_LE(w.abs_max(), bound);
  EXPECT_GT(w.abs_max(), 0.0f);
}

}  // namespace
}  // namespace mpipe
