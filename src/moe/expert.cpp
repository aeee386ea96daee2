#include "moe/expert.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"
#include "tensor/simd.h"

namespace mpipe::moe {

ExpertFFN::ExpertFFN(std::int64_t d_model, std::int64_t d_hidden,
                     ActivationKind activation, Rng& rng)
    : activation_(activation),
      w1_(Shape{d_model, d_hidden}),
      b1_(Shape{d_hidden}),
      w2_(Shape{d_hidden, d_model}),
      b2_(Shape{d_model}),
      gw1_(Shape{d_model, d_hidden}),
      gb1_(Shape{d_hidden}),
      gw2_(Shape{d_hidden, d_model}),
      gb2_(Shape{d_model}) {
  MPIPE_EXPECTS(d_model > 0 && d_hidden > 0, "bad expert dimensions");
  init_kaiming(w1_, rng, d_model);
  init_kaiming(w2_, rng, d_hidden);
}

namespace {

/// GEMM view of a quantized weight cache.
QuantView qview(const QuantizedMatrix& q) {
  return {q.dtype,
          q.dtype == DType::kBF16
              ? static_cast<const void*>(q.bf16.data())
              : static_cast<const void*>(q.i8.data()),
          q.scales.empty() ? nullptr : q.scales.data(), q.rows, q.cols};
}

}  // namespace

void ExpertFFN::set_compute_dtype(DType dtype) {
  compute_dtype_ = dtype;
  if (dtype == DType::kF32) {
    qw1_ = QuantizedMatrix{};
    qw2_ = QuantizedMatrix{};
    return;
  }
  refresh_quantized();
}

void ExpertFFN::refresh_quantized() {
  if (compute_dtype_ == DType::kF32) return;
  qw1_ = quantize_matrix(w1_, compute_dtype_);
  qw2_ = quantize_matrix(w2_, compute_dtype_);
}

/// FFN1: mid = epilogue(x W1 + b1), through the quantized W1 when a
/// reduced dtype is active.
void ExpertFFN::ffn1(const Tensor& x, GemmEpilogue ep, Tensor& mid) const {
  if (compute_dtype_ == DType::kF32) {
    gemm_bias_act(x, w1_, b1_, ep, mid);
  } else {
    gemm_bias_act_q(x, qview(qw1_), b1_, ep, mid);
  }
}

/// FFN2: out = act W2 + b2.
void ExpertFFN::ffn2(const Tensor& act, Tensor& out) const {
  if (compute_dtype_ == DType::kF32) {
    gemm_bias(act, w2_, b2_, out);
  } else {
    gemm_bias_act_q(act, qview(qw2_), b2_, GemmEpilogue::kBias, out);
  }
}

// T_M stash convention: with ReLU, `mid` holds the post-activation values
// (in-place semantics, paper §II-B) — the ReLU mask is recoverable from
// them. With GELU the post-activation is not invertible, so `mid` holds
// the PRE-activation and FFN2 applies the activation on the fly; the
// backward reads `mid` accordingly. The activation stash stays B*H either
// way, so the Eq-2 memory model is unchanged.

Tensor ExpertFFN::forward(const Tensor& x, Tensor& mid) const {
  MPIPE_EXPECTS(x.shape().rank() == 2 && x.dim(1) == d_model(),
                "expert input must be (rows, M)");
  mid = Tensor(Shape{x.dim(0), d_hidden()});
  Tensor act;
  if (activation_ == ActivationKind::kReLU) {
    // FFN1 with the bias+ReLU epilogue fused into the GEMM tile writes.
    ffn1(x, GemmEpilogue::kBiasReLU, mid);
    act = mid;
  } else {
    ffn1(x, GemmEpilogue::kBias, mid);  // stash pre-activation
    act = gelu(mid);
  }
  Tensor out(Shape{x.dim(0), d_model()});
  ffn2(act, out);
  return out;
}

Tensor ExpertFFN::backward(const Tensor& dy, const Tensor& x,
                           const Tensor& mid) {
  MPIPE_EXPECTS(dy.dim(0) == x.dim(0), "row count mismatch");
  // Recover the post-activation values FFN2 consumed.
  Tensor act = activation_ == ActivationKind::kReLU ? mid : gelu(mid);
  // dW2 += act^T dy and db2 += colsum(dy), fused into one pass over the
  // packed dy panels; dAct = dy W2^T.
  gemm_tn_bias_grad(act, dy, gw2_, gb2_, /*accumulate=*/true);
  Tensor dact(Shape{x.dim(0), d_hidden()});
  if (compute_dtype_ == DType::kF32) {
    gemm_nt(dy, w2_, dact);
  } else {
    gemm_nt_q(dy, qview(qw2_), dact);
  }
  // Through the activation (ReLU's mask works on post-activation values;
  // GELU differentiates at the stashed pre-activation).
  Tensor dpre = activation_ == ActivationKind::kReLU
                    ? relu_backward(dact, mid)
                    : gelu_backward(dact, mid);
  // dW1 += x^T dpre and db1 += colsum(dpre), same fused pass; dx = dpre W1^T.
  gemm_tn_bias_grad(x, dpre, gw1_, gb1_, /*accumulate=*/true);
  Tensor dx(Shape{x.dim(0), d_model()});
  if (compute_dtype_ == DType::kF32) {
    gemm_nt(dpre, w1_, dx);
  } else {
    gemm_nt_q(dpre, qview(qw1_), dx);
  }
  return dx;
}

namespace {

/// Validates spans against `buf` and returns each span's packed-row start
/// (exclusive prefix sum of counts). Validation happens up front so the
/// copy loops — serial or fanned out — never throw mid-flight.
std::vector<std::int64_t> packed_offsets(const Tensor& buf,
                                         const RowSpanList& spans) {
  std::vector<std::int64_t> packed(spans.size());
  std::int64_t rows = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const RowSpan& s = spans[i];
    MPIPE_EXPECTS(s.offset >= 0 && s.count >= 0 &&
                      s.offset + s.count <= buf.dim(0),
                  "span outside buffer");
    packed[i] = rows;
    rows += s.count;
  }
  return packed;
}

/// Copies each span of `buf` to its packed-row start in `out`.
void copy_spans_packed(const Tensor& buf, const RowSpanList& spans,
                       const std::vector<std::int64_t>& packed, Tensor& out) {
  const std::int64_t cols = buf.dim(1);
  float* dst = out.data();
  const float* src = buf.data();
  auto copy_span = [&](std::size_t i) {
    const RowSpan& s = spans[i];
    simd::copy(dst + packed[i] * cols, src + s.offset * cols,
               s.count * cols);
  };
  if (out.numel() < kParallelCopyElems) {
    for (std::size_t i = 0; i < spans.size(); ++i) copy_span(i);
  } else {
    // Spans write disjoint packed ranges, so the fan-out is race-free and
    // the result identical for any chunking.
    ThreadPool::shared().parallel_for(
        spans.size(),
        [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) copy_span(i);
        },
        /*grain=*/1);
  }
}

}  // namespace

Tensor gather_spans(const Tensor& buf, const RowSpanList& spans) {
  MPIPE_EXPECTS(buf.shape().rank() == 2, "span gather needs a matrix");
  const std::vector<std::int64_t> packed = packed_offsets(buf, spans);
  Tensor out(Shape{span_rows(spans), buf.dim(1)});
  copy_spans_packed(buf, spans, packed, out);
  return out;
}

void gather_spans(const Tensor& buf, const RowSpanList& spans, Tensor& out) {
  MPIPE_EXPECTS(buf.shape().rank() == 2, "span gather needs a matrix");
  const std::vector<std::int64_t> packed = packed_offsets(buf, spans);
  MPIPE_EXPECTS(out.shape().rank() == 2 && out.dim(0) == span_rows(spans) &&
                    out.dim(1) == buf.dim(1),
                "gather output must be (span rows x buffer cols)");
  copy_spans_packed(buf, spans, packed, out);
}

void scatter_spans(const Tensor& src, Tensor& buf, const RowSpanList& spans) {
  MPIPE_EXPECTS(buf.shape().rank() == 2 && src.shape().rank() == 2 &&
                    src.dim(1) == buf.dim(1),
                "span scatter needs matching matrices");
  MPIPE_EXPECTS(src.dim(0) == span_rows(spans),
                "scatter row count mismatch");
  // Overlapping destination spans would make the concurrent fan-out a data
  // race (and were order-dependent even serially) — reject them up front.
  {
    std::vector<const RowSpan*> sorted;
    sorted.reserve(spans.size());
    // Zero-count spans move nothing and cannot race, whatever their
    // offset — only real writers enter the overlap check.
    for (const RowSpan& s : spans) {
      if (s.count > 0) sorted.push_back(&s);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const RowSpan* a, const RowSpan* b) {
                return a->offset < b->offset;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      MPIPE_EXPECTS(sorted[i]->offset >=
                        sorted[i - 1]->offset + sorted[i - 1]->count,
                    "scatter spans must cover disjoint buffer rows");
    }
  }
  const std::int64_t cols = buf.dim(1);
  const std::vector<std::int64_t> packed = packed_offsets(buf, spans);
  const float* from = src.data();
  float* to = buf.data();
  auto copy_span = [&](std::size_t i) {
    const RowSpan& s = spans[i];
    simd::copy(to + s.offset * cols, from + packed[i] * cols,
               s.count * cols);
  };
  if (src.numel() < kParallelCopyElems) {
    for (std::size_t i = 0; i < spans.size(); ++i) copy_span(i);
  } else {
    // Dispatch-plan spans cover disjoint buffer rows (the receive layout
    // keeps (source, expert) groups contiguous and non-overlapping), so
    // scattering them concurrently is race-free.
    ThreadPool::shared().parallel_for(
        spans.size(),
        [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) copy_span(i);
        },
        /*grain=*/1);
  }
}

void ExpertFFN::forward_rows(const Tensor& in, const RowSpanList& spans,
                             Tensor& mid_buf, Tensor& out_buf) const {
  if (spans.empty()) return;
  Tensor x = gather_spans(in, spans);
  Tensor mid;
  Tensor y = forward(x, mid);
  scatter_spans(mid, mid_buf, spans);
  scatter_spans(y, out_buf, spans);
}

void ExpertFFN::forward_out_rows(const Tensor& mid_buf,
                                 const RowSpanList& spans,
                                 Tensor& out_buf) const {
  if (spans.empty()) return;
  Tensor mid = gather_spans(mid_buf, spans);
  Tensor act = activation_ == ActivationKind::kReLU ? mid : gelu(mid);
  Tensor out(Shape{mid.dim(0), d_model()});
  ffn2(act, out);
  scatter_spans(out, out_buf, spans);
}

void ExpertFFN::backward_rows(const Tensor& dout_buf, const Tensor& in_buf,
                              const Tensor& mid_buf, const RowSpanList& spans,
                              Tensor& din_buf) {
  if (spans.empty()) return;
  Tensor dy = gather_spans(dout_buf, spans);
  Tensor x = gather_spans(in_buf, spans);
  Tensor mid = gather_spans(mid_buf, spans);
  Tensor dx = backward(dy, x, mid);
  scatter_spans(dx, din_buf, spans);
}

void ExpertFFN::recompute_mid_rows(const Tensor& in_buf,
                                   const RowSpanList& spans,
                                   Tensor& mid_buf) const {
  if (spans.empty()) return;
  Tensor x = gather_spans(in_buf, spans);
  Tensor mid(Shape{x.dim(0), d_hidden()});
  // Same stash convention as forward(): ReLU keeps post-activation, GELU
  // keeps pre-activation — both with the bias (and ReLU) fused.
  if (activation_ == ActivationKind::kReLU) {
    ffn1(x, GemmEpilogue::kBiasReLU, mid);
  } else {
    ffn1(x, GemmEpilogue::kBias, mid);
  }
  scatter_spans(mid, mid_buf, spans);
}

void ExpertFFN::zero_grad() {
  gw1_.zero();
  gb1_.zero();
  gw2_.zero();
  gb2_.zero();
}

std::vector<Tensor*> ExpertFFN::parameters() {
  return {&w1_, &b1_, &w2_, &b2_};
}

std::vector<Tensor*> ExpertFFN::gradients() {
  return {&gw1_, &gb1_, &gw2_, &gb2_};
}

}  // namespace mpipe::moe
