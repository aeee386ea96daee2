#pragma once
/// \file tensor.h
/// Dense row-major fp32 tensor with shared storage. Cheap to copy (copies
/// share the buffer, like torch tensors); use clone() for a deep copy.
/// view_rows() and reshape() also share it, at an element offset.
/// All real math in the reproduction flows through these.

#include <memory>
#include <vector>

#include "tensor/shape.h"

namespace mpipe {

class Tensor {
 public:
  /// Empty (null) tensor.
  Tensor() = default;

  /// Allocates zero-initialised storage of the given shape.
  explicit Tensor(Shape shape);

  /// Wraps existing data (copied in).
  Tensor(Shape shape, std::vector<float> data);

  static Tensor full(Shape shape, float value);

  bool defined() const { return storage_ != nullptr; }
  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return shape_.numel(); }
  std::int64_t dim(std::size_t i) const { return shape_.dim(i); }

  /// Size of the underlying buffer in bytes (fp32).
  std::uint64_t nbytes() const {
    return static_cast<std::uint64_t>(numel()) * sizeof(float);
  }

  float* data();
  const float* data() const;

  float& at(std::int64_t i);
  float at(std::int64_t i) const;
  /// 2-D accessors (row, col) — the dominant layout here is (tokens, dim).
  float& at(std::int64_t r, std::int64_t c);
  float at(std::int64_t r, std::int64_t c) const;

  /// Deep copy.
  Tensor clone() const;

  /// Returns a deep-copied row slice [row_begin, row_end) of a 2-D tensor.
  Tensor slice_rows(std::int64_t row_begin, std::int64_t row_end) const;

  /// Rows [row_begin, row_end) of a 2-D tensor as a view on the same
  /// storage: writes through it land in this tensor. Legal at 0 rows.
  Tensor view_rows(std::int64_t row_begin, std::int64_t row_end) const;

  /// Copies `src` into rows [row_begin, row_begin+src.rows) of this 2-D
  /// tensor (shapes must agree on the column count).
  void copy_into_rows(std::int64_t row_begin, const Tensor& src);

  /// Reinterprets storage with a new shape of identical numel (shares data).
  Tensor reshape(Shape new_shape) const;

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Sum of all elements (fp64 accumulation).
  double sum() const;
  /// Max |x|.
  float abs_max() const;

 private:
  Shape shape_;
  std::shared_ptr<std::vector<float>> storage_;
  // Offset into storage in elements; nonzero for row views (and their
  // reshapes).
  std::int64_t offset_ = 0;
};

/// max_i |a_i - b_i|; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// True when all element pairs are within atol + rtol*|b|.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace mpipe
