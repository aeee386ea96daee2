#include "tensor/ops.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/simd.h"

namespace mpipe {

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

void check_same_shape(const Tensor& a, const Tensor& b) {
  MPIPE_EXPECTS(a.shape() == b.shape(), "shape mismatch: " +
                                            a.shape().to_string() + " vs " +
                                            b.shape().to_string());
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  Tensor out = a.clone();
  add_(out, b);
  return out;
}

void add_(Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] += pb[i];
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a.clone();
  scale_(out, s);
  return out;
}

void scale_(Tensor& a, float s) {
  float* pa = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] *= s;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
  return out;
}

Tensor relu(const Tensor& x) {
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = px[i] > 0.0f ? px[i] : 0.0f;
  return out;
}

Tensor relu_backward(const Tensor& dy, const Tensor& x) {
  check_same_shape(dy, x);
  Tensor out(x.shape());
  const float* pdy = dy.data();
  const float* px = x.data();
  float* po = out.data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = px[i] > 0.0f ? pdy[i] : 0.0f;
  return out;
}

Tensor gelu(const Tensor& x) {
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const std::int64_t n = x.numel();
  ThreadPool::shared().parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          po[i] = gelu_scalar(px[i]);
        }
      },
      /*grain=*/4096);
  return out;
}

Tensor gelu_backward(const Tensor& dy, const Tensor& x) {
  check_same_shape(dy, x);
  Tensor out(x.shape());
  const float* pdy = dy.data();
  const float* px = x.data();
  float* po = out.data();
  const std::int64_t n = x.numel();
  ThreadPool::shared().parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const float v = px[i];
          const float u = kGeluC * (v + 0.044715f * v * v * v);
          const float t = std::tanh(u);
          const float sech2 = 1.0f - t * t;
          const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
          po[i] = pdy[i] * (0.5f * (1.0f + t) + 0.5f * v * sech2 * du);
        }
      },
      /*grain=*/4096);
  return out;
}

void add_bias_(Tensor& x, const Tensor& bias) {
  MPIPE_EXPECTS(x.shape().rank() == 2, "add_bias_ expects a matrix");
  MPIPE_EXPECTS(bias.shape().rank() == 1 && bias.dim(0) == x.dim(1),
                "bias length must equal column count");
  float* px = x.data();
  const float* pb = bias.data();
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = px + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) row[c] += pb[c];
  }
}

Tensor bias_backward(const Tensor& dy) {
  MPIPE_EXPECTS(dy.shape().rank() == 2, "bias_backward expects a matrix");
  const std::int64_t rows = dy.dim(0), cols = dy.dim(1);
  Tensor out(Shape{cols});
  const float* p = dy.data();
  float* po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = p + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) po[c] += row[c];
  }
  return out;
}

namespace {

/// Row-wise softmax kernel: vector max / sum / normalize with scalar exp
/// (libm has no vector form here), scalar tail for ragged widths. The
/// scalar fallback is the same arithmetic with kLanes = 1-style loops.
void softmax_row(const float* MPIPE_RESTRICT in, std::int64_t cols,
                 float* MPIPE_RESTRICT o) {
#if defined(MPIPE_SIMD)
  using simd::kLanes;
  using simd::VF;
  float mx = in[0];
  std::int64_t c = 0;
  if (cols >= kLanes) {
    VF vmx = simd::load(in);
    for (c = kLanes; c + kLanes <= cols; c += kLanes) {
      vmx = simd::vmax(vmx, simd::load(in + c));
    }
    mx = simd::hmax(vmx);
  }
  for (; c < cols; ++c) mx = std::max(mx, in[c]);
  float denom = 0.0f;
  for (c = 0; c < cols; ++c) {
    o[c] = std::exp(in[c] - mx);
    denom += o[c];
  }
  const VF vinv = simd::splat(1.0f / denom);
  for (c = 0; c + kLanes <= cols; c += kLanes) {
    simd::store(o + c, simd::load(o + c) * vinv);
  }
  const float inv = vinv[0];
  for (; c < cols; ++c) o[c] *= inv;
#else
  float mx = in[0];
  for (std::int64_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
  float denom = 0.0f;
  for (std::int64_t c = 0; c < cols; ++c) {
    o[c] = std::exp(in[c] - mx);
    denom += o[c];
  }
  const float inv = 1.0f / denom;
  for (std::int64_t c = 0; c < cols; ++c) o[c] *= inv;
#endif
}

/// dx = y * (dy - <dy, y>) for one row.
void softmax_backward_row(const float* MPIPE_RESTRICT gy,
                          const float* MPIPE_RESTRICT yy, std::int64_t cols,
                          float* MPIPE_RESTRICT o) {
#if defined(MPIPE_SIMD)
  using simd::kLanes;
  using simd::VF;
  VF vdot = {};
  float dot = 0.0f;
  std::int64_t c = 0;
  for (; c + kLanes <= cols; c += kLanes) {
    vdot += simd::load(gy + c) * simd::load(yy + c);
  }
  dot = simd::hsum(vdot);
  for (; c < cols; ++c) dot += gy[c] * yy[c];
  const VF vd = simd::splat(dot);
  for (c = 0; c + kLanes <= cols; c += kLanes) {
    simd::store(o + c, simd::load(yy + c) * (simd::load(gy + c) - vd));
  }
  for (; c < cols; ++c) o[c] = yy[c] * (gy[c] - dot);
#else
  float dot = 0.0f;
  for (std::int64_t c = 0; c < cols; ++c) dot += gy[c] * yy[c];
  for (std::int64_t c = 0; c < cols; ++c) o[c] = yy[c] * (gy[c] - dot);
#endif
}

}  // namespace

Tensor softmax_rows(const Tensor& x) {
  MPIPE_EXPECTS(x.shape().rank() == 2, "softmax_rows expects a matrix");
  MPIPE_EXPECTS(x.dim(1) > 0, "softmax of empty rows");
  Tensor out(x.shape());
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  const float* px = x.data();
  float* po = out.data();
  ThreadPool::shared().parallel_for(
      static_cast<std::size_t>(rows),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          softmax_row(px + r * cols, cols, po + r * cols);
        }
      },
      /*grain=*/64);
  return out;
}

Tensor softmax_rows_backward(const Tensor& dy, const Tensor& y) {
  check_same_shape(dy, y);
  MPIPE_EXPECTS(y.shape().rank() == 2, "softmax backward expects a matrix");
  Tensor out(y.shape());
  const std::int64_t rows = y.dim(0), cols = y.dim(1);
  const float* pdy = dy.data();
  const float* py = y.data();
  float* po = out.data();
  ThreadPool::shared().parallel_for(
      static_cast<std::size_t>(rows),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          softmax_backward_row(pdy + r * cols, py + r * cols, cols,
                               po + r * cols);
        }
      },
      /*grain=*/64);
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& x) {
  MPIPE_EXPECTS(x.shape().rank() == 2, "argmax_rows expects a matrix");
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  MPIPE_EXPECTS(cols > 0, "argmax of empty rows");
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  const float* px = x.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = px + r * cols;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

void scale_rows_(Tensor& x, const std::vector<float>& s) {
  MPIPE_EXPECTS(x.shape().rank() == 2, "scale_rows_ expects a matrix");
  MPIPE_EXPECTS(static_cast<std::int64_t>(s.size()) == x.dim(0),
                "scale vector length mismatch");
  float* px = x.data();
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float f = s[static_cast<std::size_t>(r)];
    float* row = px + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) row[c] *= f;
  }
}

double mse_loss(const Tensor& pred, const Tensor& target) {
  check_same_shape(pred, target);
  const float* pp = pred.data();
  const float* pt = target.data();
  const std::int64_t n = pred.numel();
  MPIPE_EXPECTS(n > 0, "mse of empty tensor");
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(pp[i]) - pt[i];
    acc += d * d;
  }
  return acc / static_cast<double>(n);
}

Tensor mse_loss_grad(const Tensor& pred, const Tensor& target) {
  check_same_shape(pred, target);
  Tensor out(pred.shape());
  const float* pp = pred.data();
  const float* pt = target.data();
  float* po = out.data();
  const std::int64_t n = pred.numel();
  const float inv = 2.0f / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) po[i] = inv * (pp[i] - pt[i]);
  return out;
}

bool all_finite(const Tensor& t) {
  if (!t.defined()) return true;
  const float* p = t.data();
  const std::int64_t n = t.numel();
  constexpr std::uint32_t kExpMask = 0x7f800000u;
  std::int64_t i = 0;
#if defined(MPIPE_SIMD)
  // 8-lane exponent-bit test: OR the "exponent all ones" lane masks into
  // an accumulator and inspect it once per block. Bit tests (not float
  // compares) so NaN payloads and compiler float flags cannot change the
  // verdict.
  typedef std::uint32_t VU __attribute__((
      vector_size(simd::kLanes * sizeof(std::uint32_t)),
      aligned(alignof(std::uint32_t))));
  VU any_bad = {};
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    VU bits;
    std::memcpy(&bits, p + i, simd::kLanes * sizeof(std::uint32_t));
    any_bad |= ((bits & kExpMask) == kExpMask);
  }
  for (std::int64_t lane = 0; lane < simd::kLanes; ++lane) {
    if (any_bad[lane] != 0) return false;
  }
#endif
  for (; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, p + i, sizeof(bits));
    if ((bits & kExpMask) == kExpMask) return false;
  }
  return true;
}

}  // namespace mpipe
