#include "tensor/tensor.h"

#include <cmath>
#include <cstring>

#include "common/check.h"

namespace mpipe {

Tensor::Tensor(Shape shape)
    : shape_(shape),
      storage_(std::make_shared<std::vector<float>>(
          static_cast<std::size_t>(shape.numel()), 0.0f)) {}

Tensor::Tensor(Shape shape, std::vector<float> data) : shape_(shape) {
  MPIPE_EXPECTS(static_cast<std::int64_t>(data.size()) == shape.numel(),
                "data size does not match shape");
  storage_ = std::make_shared<std::vector<float>>(std::move(data));
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

float* Tensor::data() {
  MPIPE_EXPECTS(defined(), "null tensor");
  return storage_->data() + offset_;
}

const float* Tensor::data() const {
  MPIPE_EXPECTS(defined(), "null tensor");
  return storage_->data() + offset_;
}

float& Tensor::at(std::int64_t i) {
  MPIPE_EXPECTS(i >= 0 && i < numel(), "flat index out of range");
  return data()[i];
}

float Tensor::at(std::int64_t i) const {
  MPIPE_EXPECTS(i >= 0 && i < numel(), "flat index out of range");
  return data()[i];
}

float& Tensor::at(std::int64_t r, std::int64_t c) {
  MPIPE_EXPECTS(shape_.rank() == 2, "2-D accessor on non-matrix");
  MPIPE_EXPECTS(r >= 0 && r < shape_.dim(0) && c >= 0 && c < shape_.dim(1),
                "index out of range");
  return data()[r * shape_.dim(1) + c];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  MPIPE_EXPECTS(shape_.rank() == 2, "2-D accessor on non-matrix");
  MPIPE_EXPECTS(r >= 0 && r < shape_.dim(0) && c >= 0 && c < shape_.dim(1),
                "index out of range");
  return data()[r * shape_.dim(1) + c];
}

Tensor Tensor::clone() const {
  if (!defined()) return Tensor();
  Tensor out(shape_);
  // An empty tensor may have no storage; memcpy's pointers must be valid.
  if (nbytes() > 0) {
    std::memcpy(out.data(), data(), static_cast<std::size_t>(nbytes()));
  }
  return out;
}

Tensor Tensor::slice_rows(std::int64_t row_begin, std::int64_t row_end) const {
  return view_rows(row_begin, row_end).clone();
}

Tensor Tensor::view_rows(std::int64_t row_begin, std::int64_t row_end) const {
  MPIPE_EXPECTS(defined() && shape_.rank() == 2, "row range of a non-matrix");
  MPIPE_EXPECTS(0 <= row_begin && row_begin <= row_end &&
                    row_end <= shape_.dim(0),
                "row range out of bounds");
  Tensor view;
  view.shape_ = Shape{row_end - row_begin, shape_.dim(1)};
  view.storage_ = storage_;
  view.offset_ = offset_ + row_begin * shape_.dim(1);
  return view;
}

void Tensor::copy_into_rows(std::int64_t row_begin, const Tensor& src) {
  MPIPE_EXPECTS(shape_.rank() == 2 && src.shape().rank() == 2,
                "copy_into_rows on non-matrix");
  MPIPE_EXPECTS(src.dim(1) == dim(1), "column count mismatch");
  MPIPE_EXPECTS(row_begin >= 0 && row_begin + src.dim(0) <= dim(0),
                "destination rows out of bounds");
  if (src.numel() == 0) return;  // a 0-row source may have no storage
  std::memcpy(data() + row_begin * dim(1), src.data(),
              static_cast<std::size_t>(src.numel()) * sizeof(float));
}

Tensor Tensor::reshape(Shape new_shape) const {
  MPIPE_EXPECTS(defined(), "reshape of null tensor");
  MPIPE_EXPECTS(new_shape.numel() == numel(), "reshape changes numel");
  Tensor view;
  view.shape_ = new_shape;
  view.storage_ = storage_;
  view.offset_ = offset_;
  return view;
}

void Tensor::fill(float value) {
  MPIPE_EXPECTS(defined(), "fill of null tensor");
  float* p = data();
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = value;
}

double Tensor::sum() const {
  MPIPE_EXPECTS(defined(), "sum of null tensor");
  double acc = 0.0;
  const float* p = data();
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) acc += p[i];
  return acc;
}

float Tensor::abs_max() const {
  MPIPE_EXPECTS(defined(), "abs_max of null tensor");
  float m = 0.0f;
  const float* p = data();
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  MPIPE_EXPECTS(a.shape() == b.shape(), "shape mismatch");
  float m = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const float tol = atol + rtol * std::fabs(pb[i]);
    if (std::fabs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

}  // namespace mpipe
