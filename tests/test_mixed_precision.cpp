// Mixed-precision expert path (bf16 / int8 storage, fp32 accumulation):
// codec round trips, the pack-time-dequant GEMM's exactness contract
// (quantized entry == plain GEMM on the dequantized weights, bitwise),
// tolerance-bounded numerics of the reduced-dtype expert forward/backward
// against fp32, simulated-wire payload rounding with corruption-scan
// interplay, byte-accounting reductions, and the fp32 bitwise pins that
// guarantee the default path is untouched.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "comm/all_to_all.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/moe_layer.h"
#include "mem/host_staging.h"
#include "moe/expert.h"
#include "serve/slo_policy.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

float bitwise(float v) { return v; }  // readability: EXPECT_EQ is bitwise
                                      // for non-NaN floats

std::uint32_t bits_of(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// ---- codecs -----------------------------------------------------------------

TEST(Bf16Codec, ExactlyRepresentableValuesRoundTrip) {
  for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1.5f, -3.25f,
                  65536.0f, 1.0f / 256.0f}) {
    EXPECT_EQ(bits_of(bf16_round(v)), bits_of(v)) << v;
  }
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_round(inf), inf);
  EXPECT_EQ(bf16_round(-inf), -inf);
}

TEST(Bf16Codec, RoundsToNearestEven) {
  // bf16 ULP at 1.0 is 2^-7; 1.0 + 2^-8 sits exactly between the
  // neighbours 1.0 (even mantissa) and 1.0+2^-7; ties-to-even picks 1.0.
  EXPECT_EQ(bf16_round(1.0f + std::ldexp(1.0f, -8)), 1.0f);
  // Just above the tie rounds up.
  EXPECT_EQ(bf16_round(1.0f + std::ldexp(1.0f, -8) + std::ldexp(1.0f, -12)),
            1.0f + std::ldexp(1.0f, -7));
  // 1.0 + 3*2^-8 ties between 1+2^-7 (odd) and 1+2^-6 (even): picks even.
  EXPECT_EQ(bf16_round(1.0f + 3 * std::ldexp(1.0f, -8)),
            1.0f + std::ldexp(1.0f, -6));
}

TEST(Bf16Codec, NanStaysNanNeverBecomesInf) {
  // A signalling-style NaN whose payload lives only in the low mantissa
  // bits: plain truncation would clear the mantissa and fabricate an Inf.
  std::uint32_t u = 0x7f800001u;
  float snan;
  std::memcpy(&snan, &u, sizeof(snan));
  const float out = bf16_round(snan);
  EXPECT_TRUE(std::isnan(out));
  EXPECT_TRUE(std::isnan(bf16_round(std::numeric_limits<float>::quiet_NaN())));
}

TEST(I8Rounding, ZeroAndNonFiniteRowsAreExactOrUntouched) {
  Tensor t(Shape{3, 4});
  // row 0: all zero — must stay exactly zero.
  // row 1: contains a NaN — must be left untouched (corruption stays
  // detectable by downstream scans).
  // row 2: ordinary values — each moves by at most absmax/127/2.
  for (std::int64_t c = 0; c < 4; ++c) t.at(0, c) = 0.0f;
  t.at(1, 0) = 1.0f;
  t.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
  t.at(1, 2) = 2.0f;
  t.at(1, 3) = -1.0f;
  t.at(2, 0) = 0.1f;
  t.at(2, 1) = -2.54f;
  t.at(2, 2) = 1.27f;
  t.at(2, 3) = 0.005f;
  Tensor orig = t.clone();
  round_through_i8_rows(t.data(), 3, 4);
  for (std::int64_t c = 0; c < 4; ++c) EXPECT_EQ(bits_of(t.at(0, c)), 0u);
  EXPECT_EQ(bitwise(t.at(1, 0)), 1.0f);
  EXPECT_TRUE(std::isnan(t.at(1, 1)));
  EXPECT_EQ(bitwise(t.at(1, 2)), 2.0f);
  const float step = 2.54f / 127.0f;
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(t.at(2, c), orig.at(2, c), step / 2 + 1e-6f) << c;
  }
}

TEST(QuantizeMatrix, DequantizeMatchesInPlaceRounding) {
  Rng rng(11);
  Tensor w(Shape{7, 13});
  init_normal(w, rng, 1.0f);
  for (DType dt : {DType::kBF16, DType::kI8}) {
    QuantizedMatrix q = quantize_matrix(w, dt);
    EXPECT_TRUE(q.defined());
    Tensor back = dequantize_matrix(q);
    Tensor rounded = w.clone();
    round_through_dtype(rounded.data(), 7, 13, dt);
    for (std::int64_t i = 0; i < 7; ++i) {
      for (std::int64_t j = 0; j < 13; ++j) {
        EXPECT_EQ(bits_of(back.at(i, j)), bits_of(rounded.at(i, j)))
            << to_string(dt) << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(QuantizeMatrix, NonFiniteRowPoisonsInt8Scale) {
  Tensor w(Shape{2, 3});
  w.at(0, 0) = 1.0f;
  w.at(0, 1) = std::numeric_limits<float>::infinity();
  w.at(0, 2) = -1.0f;
  w.at(1, 0) = 0.5f;
  w.at(1, 1) = -0.25f;
  w.at(1, 2) = 0.125f;
  QuantizedMatrix q = quantize_matrix(w, DType::kI8);
  Tensor back = dequantize_matrix(q);
  // The corrupted row dequantizes non-finite everywhere — a numerics
  // guard downstream must still fire; the clean row is unaffected.
  for (std::int64_t c = 0; c < 3; ++c) {
    EXPECT_FALSE(std::isfinite(back.at(0, c))) << c;
    EXPECT_TRUE(std::isfinite(back.at(1, c))) << c;
  }
}

TEST(QuantizeMatrix, ByteAccounting) {
  Tensor w(Shape{8, 16});
  Rng rng(3);
  init_normal(w, rng, 1.0f);
  EXPECT_EQ(quantize_matrix(w, DType::kF32).nbytes(), 0u);
  EXPECT_EQ(quantize_matrix(w, DType::kBF16).nbytes(), 8u * 16 * 2);
  EXPECT_EQ(quantize_matrix(w, DType::kI8).nbytes(), 8u * 16 * 1 + 8u * 4);
  EXPECT_EQ(quantized_bytes(8, 16, DType::kF32), 8u * 16 * 4);
}

// ---- quantized GEMM: exactness + tolerance ---------------------------------

QuantView qview(const QuantizedMatrix& q) {
  QuantView v;
  v.dtype = q.dtype;
  v.rows = q.rows;
  v.cols = q.cols;
  v.data = q.dtype == DType::kBF16 ? static_cast<const void*>(q.bf16.data())
                                   : static_cast<const void*>(q.i8.data());
  v.row_scales = q.dtype == DType::kI8 ? q.scales.data() : nullptr;
  return v;
}

struct QuantGemmCase {
  std::int64_t m, k, n;
};

class QuantGemmSweep : public testing::TestWithParam<QuantGemmCase> {};

TEST_P(QuantGemmSweep, PackTimeDequantIsBitwiseExact) {
  // The contract that keeps one compute core for every dtype: the
  // quantized entry point must produce *bitwise* the result of the plain
  // packed GEMM on the dequantized weights — same fp32 panel values, same
  // accumulation order.
  const auto [m, k, n] = GetParam();
  Rng rng(m * 131 + k * 17 + n);
  Tensor a(Shape{m, k}), w(Shape{k, n}), bias(Shape{n});
  init_normal(a, rng, 1.0f);
  init_normal(w, rng, 0.5f);
  init_normal(bias, rng, 0.1f);
  for (DType dt : {DType::kBF16, DType::kI8}) {
    QuantizedMatrix q = quantize_matrix(w, dt);
    Tensor wd = dequantize_matrix(q);
    for (GemmEpilogue ep : {GemmEpilogue::kBias, GemmEpilogue::kBiasReLU,
                            GemmEpilogue::kBiasGELU}) {
      Tensor want(Shape{m, n}), got(Shape{m, n});
      gemm_bias_act(a, wd, bias, ep, want);
      gemm_bias_act_q(a, qview(q), bias, ep, got);
      for (std::int64_t i = 0; i < m * n; ++i) {
        ASSERT_EQ(bits_of(got.data()[i]), bits_of(want.data()[i]))
            << to_string(dt) << " ep " << static_cast<int>(ep) << " i " << i;
      }
    }
    // nt variant: B stored transposed (n x k), per-stored-row scales.
    Tensor wt(Shape{n, k});
    init_normal(wt, rng, 0.5f);
    QuantizedMatrix qt = quantize_matrix(wt, dt);
    Tensor wtd = dequantize_matrix(qt);
    Tensor want(Shape{m, n}), got(Shape{m, n});
    gemm_nt(a, wtd, want);
    gemm_nt_q(a, qview(qt), got);
    for (std::int64_t i = 0; i < m * n; ++i) {
      ASSERT_EQ(bits_of(got.data()[i]), bits_of(want.data()[i]))
          << to_string(dt) << " nt i " << i;
    }
  }
}

TEST_P(QuantGemmSweep, ToleranceVsF32) {
  // Reduced-dtype weights against the exact fp32 product: bounded by the
  // per-element quantization step times the reduction depth (fp32
  // accumulation adds nothing on top).
  const auto [m, k, n] = GetParam();
  if (m == 0) return;  // relative bound needs at least one output row
  Rng rng(m * 7 + k * 3 + n);
  Tensor a(Shape{m, k}), w(Shape{k, n}), bias(Shape{n});
  init_normal(a, rng, 1.0f);
  init_normal(w, rng, 0.5f);
  init_normal(bias, rng, 0.1f);
  Tensor ref(Shape{m, n});
  gemm_bias_act(a, w, bias, GemmEpilogue::kBias, ref);
  float ref_absmax = 0.0f;
  for (std::int64_t i = 0; i < m * n; ++i) {
    ref_absmax = std::max(ref_absmax, std::fabs(ref.data()[i]));
  }
  for (DType dt : {DType::kBF16, DType::kI8}) {
    QuantizedMatrix q = quantize_matrix(w, dt);
    Tensor got(Shape{m, n});
    gemm_bias_act_q(a, qview(q), bias, GemmEpilogue::kBias, got);
    // bf16: 2^-9 relative weight error; i8: absmax/254 per weight. Both
    // accumulate at most linearly in k against |a| ~ N(0,1).
    const double step = dt == DType::kBF16 ? std::ldexp(1.0, -9) : 1.0 / 254;
    const double tol =
        4.0 * step * static_cast<double>(k) * 0.5 + 1e-5;  // 0.5 = |w| scale
    EXPECT_LT(max_abs_diff(got, ref),
              std::max<double>(tol, 0.05 * ref_absmax))
        << to_string(dt);
  }
}

/// Runs every quantized entry point (each epilogue of gemm_bias_act_q,
/// both gemm_nt_q modes) for each reduced dtype on `a` and returns the
/// outputs in a fixed order; `c0` seeds the accumulating variant.
std::vector<Tensor> run_quant_entry_points(const Tensor& a, const Tensor& c0,
                                           const QuantizedMatrix* qs,
                                           const QuantizedMatrix* qts,
                                           const Tensor& bias) {
  std::vector<Tensor> outs;
  for (int d = 0; d < 2; ++d) {
    for (GemmEpilogue ep : {GemmEpilogue::kNone, GemmEpilogue::kBias,
                            GemmEpilogue::kBiasReLU,
                            GemmEpilogue::kBiasGELU}) {
      Tensor c(c0.shape());
      gemm_bias_act_q(a, qview(qs[d]), bias, ep, c);
      outs.push_back(c);
    }
    for (bool acc : {false, true}) {
      Tensor c = c0.clone();
      gemm_nt_q(a, qview(qts[d]), c, acc);
      outs.push_back(c);
    }
  }
  return outs;
}

/// Quantized weights for the invariance pins: B (k x n) and B^T (n x k) in
/// bf16 and int8.
struct QuantPinInputs {
  Tensor a, bias, c0;
  QuantizedMatrix q[2], qt[2];
  explicit QuantPinInputs(const QuantGemmCase& s) {
    Rng rng(s.m * 37 + s.k * 11 + s.n);
    a = Tensor(Shape{s.m, s.k});
    bias = Tensor(Shape{s.n});
    c0 = Tensor(Shape{s.m, s.n});
    Tensor w(Shape{s.k, s.n}), wt(Shape{s.n, s.k});
    for (Tensor* t : {&a, &bias, &c0, &w, &wt}) init_normal(*t, rng, 1.0f);
    const DType dts[2] = {DType::kBF16, DType::kI8};
    for (int d = 0; d < 2; ++d) {
      q[d] = quantize_matrix(w, dts[d]);
      qt[d] = quantize_matrix(wt, dts[d]);
    }
  }
};

void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(bits_of(got.data()[i]), bits_of(want.data()[i]))
        << what << " element " << i;
  }
}

TEST_P(QuantGemmSweep, BitwiseAcrossPoolSizes) {
  const QuantPinInputs in(GetParam());
  std::vector<Tensor> reference;
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool::reset_shared(threads);
    const auto outs = run_quant_entry_points(in.a, in.c0, in.q, in.qt, in.bias);
    if (threads == 1) {
      reference = outs;
      continue;
    }
    for (std::size_t e = 0; e < outs.size(); ++e) {
      expect_same_bits(outs[e], reference[e],
                       "entry " + std::to_string(e) + " threads=" +
                           std::to_string(threads));
    }
  }
  ThreadPool::reset_shared(0);  // restore the machine-sized pool
}

TEST_P(QuantGemmSweep, RowsMatchOneRowGemm) {
  const QuantPinInputs in(GetParam());
  const auto full = run_quant_entry_points(in.a, in.c0, in.q, in.qt, in.bias);
  for (std::int64_t i = 0; i < in.a.dim(0); ++i) {
    const auto rows =
        run_quant_entry_points(in.a.slice_rows(i, i + 1),
                               in.c0.slice_rows(i, i + 1), in.q, in.qt,
                               in.bias);
    for (std::size_t e = 0; e < full.size(); ++e) {
      expect_same_bits(rows[e], full[e].slice_rows(i, i + 1),
                       "entry " + std::to_string(e) + " row " +
                           std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QuantGemmSweep,
    testing::Values(QuantGemmCase{0, 16, 16},    // rows=0 panel
                    QuantGemmCase{1, 16, 16},    // rows=1 panel
                    QuantGemmCase{5, 19, 23},    // ragged everywhere
                    QuantGemmCase{8, 16, 16},    // exact register block
                    QuantGemmCase{64, 48, 32},   // multiple tiles
                    QuantGemmCase{97, 33, 129},  // ragged multi-tile
                    QuantGemmCase{64, 128, 512},  // FFN1 expert panel
                    QuantGemmCase{64, 512, 128},  // FFN2 expert panel
                    QuantGemmCase{512, 64, 128},  // K = 64 panels
                    QuantGemmCase{128, 64, 512},
                    QuantGemmCase{40, 333, 96}  // K > 256, K % 8 != 0
                    ));

TEST(QuantGemmF32Pin, F32QuantViewIsBitwiseThePlainPath) {
  // The fp32 pin at the kernel level: a kF32 QuantView must route through
  // packing code bitwise identical to the fp32 entry points.
  Rng rng(5);
  Tensor a(Shape{21, 35}), w(Shape{35, 27}), bias(Shape{27});
  init_normal(a, rng, 1.0f);
  init_normal(w, rng, 1.0f);
  init_normal(bias, rng, 1.0f);
  QuantView v;
  v.dtype = DType::kF32;
  v.data = w.data();
  v.rows = w.dim(0);
  v.cols = w.dim(1);
  Tensor want(Shape{21, 27}), got(Shape{21, 27});
  gemm_bias_act(a, w, bias, GemmEpilogue::kBiasReLU, want);
  gemm_bias_act_q(a, v, bias, GemmEpilogue::kBiasReLU, got);
  for (std::int64_t i = 0; i < 21 * 27; ++i) {
    ASSERT_EQ(bits_of(got.data()[i]), bits_of(want.data()[i])) << i;
  }
}

// ---- expert forward/backward under reduced dtype ----------------------------

class ExpertDtypeSweep : public testing::TestWithParam<DType> {};

TEST_P(ExpertDtypeSweep, ForwardAndBackwardWithinTolerance) {
  const DType dt = GetParam();
  const std::int64_t M = 24, H = 56, B = 17;
  Rng rng_a(42), rng_b(42);  // identical weights
  moe::ExpertFFN ref(M, H, moe::ActivationKind::kGELU, rng_a);
  moe::ExpertFFN quant(M, H, moe::ActivationKind::kGELU, rng_b);
  quant.set_compute_dtype(dt);
  EXPECT_EQ(quant.compute_dtype(), dt);

  Rng data_rng(7);
  Tensor x(Shape{B, M});
  init_normal(x, data_rng, 1.0f);
  Tensor mid_ref, mid_q;
  Tensor y_ref = ref.forward(x, mid_ref);
  Tensor y_q = quant.forward(x, mid_q);
  float y_absmax = 0.0f;
  for (std::int64_t i = 0; i < B * M; ++i) {
    y_absmax = std::max(y_absmax, std::fabs(y_ref.data()[i]));
  }
  const float fwd_tol = 0.08f * std::max(y_absmax, 1.0f);
  EXPECT_LT(max_abs_diff(y_q, y_ref), fwd_tol) << to_string(dt);

  Tensor dy(Shape{B, M});
  init_normal(dy, data_rng, 1.0f);
  Tensor dx_ref = ref.backward(dy, x, mid_ref);
  Tensor dx_q = quant.backward(dy, x, mid_q);
  float dx_absmax = 0.0f;
  for (std::int64_t i = 0; i < B * M; ++i) {
    dx_absmax = std::max(dx_absmax, std::fabs(dx_ref.data()[i]));
  }
  EXPECT_LT(max_abs_diff(dx_q, dx_ref), 0.1f * std::max(dx_absmax, 1.0f))
      << to_string(dt);
  // Weight gradients are fp32-master-path GEMMs fed by slightly different
  // activations; they must stay finite and close.
  auto g_ref = ref.gradients();
  auto g_q = quant.gradients();
  ASSERT_EQ(g_ref.size(), g_q.size());
  for (std::size_t i = 0; i < g_ref.size(); ++i) {
    EXPECT_TRUE(all_finite(*g_q[i])) << i;
  }
}

TEST_P(ExpertDtypeSweep, QuantizedBytesAndRefresh) {
  const DType dt = GetParam();
  const std::int64_t M = 16, H = 32;
  Rng rng(1);
  moe::ExpertFFN e(M, H, moe::ActivationKind::kReLU, rng);
  EXPECT_EQ(e.quantized_weight_bytes(), 0u);
  e.set_compute_dtype(dt);
  const std::uint64_t expect =
      quantized_bytes(M, H, dt) + quantized_bytes(H, M, dt);
  EXPECT_EQ(e.quantized_weight_bytes(), expect);

  // Stale-cache hazard: mutate the master weights, then refresh — the
  // forward must track the new masters.
  Tensor x(Shape{4, M});
  init_normal(x, rng, 1.0f);
  Tensor mid0;
  Tensor y0 = e.forward(x, mid0);
  for (Tensor* p : e.parameters()) scale_(*p, 0.5f);
  e.refresh_quantized();
  Tensor mid1;
  Tensor y1 = e.forward(x, mid1);
  EXPECT_GT(max_abs_diff(y1, y0), 0.0f);  // the halved weights took effect

  // Back to f32: caches dropped, bitwise the legacy path again.
  e.set_compute_dtype(DType::kF32);
  EXPECT_EQ(e.quantized_weight_bytes(), 0u);
}

TEST(ExpertDtypeF32Pin, RoundTripThroughBf16AndBackIsBitwiseClean) {
  // Switching a layer to bf16 and back must restore the exact legacy
  // fp32 path — not an approximation of it.
  const std::int64_t M = 16, H = 32, B = 9;
  Rng rng_a(3), rng_b(3);
  moe::ExpertFFN pin(M, H, moe::ActivationKind::kReLU, rng_a);
  moe::ExpertFFN toggled(M, H, moe::ActivationKind::kReLU, rng_b);
  toggled.set_compute_dtype(DType::kBF16);
  toggled.set_compute_dtype(DType::kF32);
  Rng data_rng(5);
  Tensor x(Shape{B, M});
  init_normal(x, data_rng, 1.0f);
  Tensor mid_a, mid_b;
  Tensor ya = pin.forward(x, mid_a);
  Tensor yb = toggled.forward(x, mid_b);
  for (std::int64_t i = 0; i < B * M; ++i) {
    ASSERT_EQ(bits_of(ya.data()[i]), bits_of(yb.data()[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Dtypes, ExpertDtypeSweep,
                         testing::Values(DType::kBF16, DType::kI8),
                         [](const testing::TestParamInfo<DType>& info) {
                           return std::string(to_string(info.param));
                         });

// ---- simulated wire payloads ------------------------------------------------

TEST(PayloadRounding, ApplySegmentsRoundsThroughWireFormat) {
  Tensor src(Shape{4, 8}), dst(Shape{4, 8});
  Rng rng(9);
  init_normal(src, rng, 1.0f);
  comm::RowSegment seg;
  seg.src = &src;
  seg.dst = &dst;
  seg.rows = 4;
  seg.src_device = 0;
  seg.dst_device = 1;
  comm::apply_segments({seg}, DType::kBF16);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 8; ++j) {
      EXPECT_EQ(bits_of(dst.at(i, j)), bits_of(bf16_round(src.at(i, j))));
    }
  }
  // f32 stays a byte-exact copy.
  Tensor dst32(Shape{4, 8});
  seg.dst = &dst32;
  comm::apply_segments({seg});
  for (std::int64_t i = 0; i < 4 * 8; ++i) {
    EXPECT_EQ(bits_of(dst32.data()[i]), bits_of(src.data()[i]));
  }
}

TEST(PayloadRounding, MaxBytesSentCountsWireFormat) {
  Tensor src(Shape{10, 16}), dst(Shape{10, 16});
  comm::RowSegment cross;
  cross.src = &src;
  cross.dst = &dst;
  cross.rows = 10;
  cross.src_device = 0;
  cross.dst_device = 1;
  EXPECT_EQ(comm::max_bytes_sent({cross}), 10u * 16 * 4);
  EXPECT_EQ(comm::max_bytes_sent({cross}, DType::kBF16), 10u * 16 * 2);
  EXPECT_EQ(comm::max_bytes_sent({cross}, DType::kI8), 10u * 16 + 10u * 4);
}

TEST(PayloadRounding, CorruptionSurvivesRoundingAndScanFires) {
  // A NaN in the payload must ride through bf16 and int8 rounding so the
  // per-dtype wire keeps scan_payloads' detection guarantee.
  for (DType dt : {DType::kBF16, DType::kI8}) {
    Tensor src(Shape{2, 4}), dst(Shape{2, 4});
    Rng rng(4);
    init_normal(src, rng, 1.0f);
    src.at(1, 2) = std::numeric_limits<float>::quiet_NaN();
    comm::RowSegment seg;
    seg.src = &src;
    seg.dst = &dst;
    seg.rows = 2;
    seg.src_device = 0;
    seg.dst_device = 1;

    FaultInjectionConfig cfg;
    cfg.scan_payloads = true;
    FaultInjector injector(cfg);
    EXPECT_THROW(
        comm::apply_segments_guarded({seg}, &injector, 0, "S0", dt),
        TransientError)
        << to_string(dt);
    EXPECT_FALSE(std::isfinite(dst.at(1, 2))) << to_string(dt);
  }
}

TEST(HostStagingDtype, StoresRoundedCopyWithQuantizedAccounting) {
  mem::HostStaging staging;
  Tensor t(Shape{6, 10});
  Rng rng(2);
  init_normal(t, rng, 1.0f);
  mem::HostStaging::Slot& a = staging.slot(0, mem::Stash::kTdi, 0);
  staging.store(a, t, 6, DType::kBF16);
  EXPECT_EQ(staging.bytes_stored(), 6u * 10 * 2);
  Tensor back(Shape{6, 10});
  staging.restore(a, back);
  for (std::int64_t i = 0; i < 6 * 10; ++i) {
    EXPECT_EQ(bits_of(back.data()[i]), bits_of(bf16_round(t.data()[i])));
  }
  staging.store(a, t, 6, DType::kBF16);
  staging.store(staging.slot(1, mem::Stash::kTdi, 0), t, 6, DType::kI8);
  EXPECT_EQ(staging.bytes_stored(), 6u * 10 * 2 + (6u * 10 + 6u * 4));
  staging.clear();
  // Default stays the byte-exact fp32 copy.
  staging.store(a, t, 6);
  EXPECT_EQ(staging.bytes_stored(), 6u * 10 * 4);
  Tensor exact(Shape{6, 10});
  staging.restore(a, exact);
  for (std::int64_t i = 0; i < 6 * 10; ++i) {
    EXPECT_EQ(bits_of(exact.data()[i]), bits_of(t.data()[i]));
  }
}

// ---- end-to-end layer: numerics + byte reductions ---------------------------

core::MoELayerOptions mixed_options(DType dt) {
  core::MoELayerOptions o;
  o.d_model = 16;
  o.d_hidden = 48;
  o.num_experts = 4;
  o.num_partitions = 2;
  o.memory_reuse = true;
  o.strategy = core::ReuseStrategy::kS1;  // offloads exercise staging dtype
  o.seed = 7;
  o.compute_dtype = dt;
  return o;
}

std::vector<Tensor> layer_inputs(int devices, std::int64_t tokens,
                                 std::int64_t d_model, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (int d = 0; d < devices; ++d) {
    inputs.push_back(random_tokens(tokens, d_model, rng));
  }
  return inputs;
}

TEST(MixedPrecisionLayer, ForwardBackwardToleranceAndCounters) {
  sim::Cluster c32 = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer f32(c32, mixed_options(DType::kF32));
  auto inputs = layer_inputs(4, 32, 16, 99);
  auto ref_out = f32.forward(inputs);
  std::vector<Tensor> grads;
  Rng grng(13);
  for (auto& out : ref_out) {
    Tensor g(out.shape());
    init_normal(g, grng, 1.0f);
    grads.push_back(g);
  }
  auto ref_dx = f32.backward(grads);
  const core::StepReport f32_report = f32.last_report();
  EXPECT_EQ(f32_report.compute_dtype, DType::kF32);
  EXPECT_EQ(f32_report.expert_weight_bytes, 0u);
  EXPECT_GT(f32_report.alltoall_payload_bytes, 0u);

  for (DType dt : {DType::kBF16, DType::kI8}) {
    sim::Cluster cq = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayer q(cq, mixed_options(dt));
    auto out = q.forward(inputs);
    ASSERT_EQ(out.size(), ref_out.size());
    for (std::size_t d = 0; d < out.size(); ++d) {
      float absmax = 0.0f;
      for (std::int64_t i = 0; i < out[d].numel(); ++i) {
        absmax = std::max(absmax, std::fabs(ref_out[d].data()[i]));
      }
      EXPECT_LT(max_abs_diff(out[d], ref_out[d]),
                0.1f * std::max(absmax, 1.0f))
          << to_string(dt) << " device " << d;
    }
    auto dx = q.backward(grads);
    for (std::size_t d = 0; d < dx.size(); ++d) {
      EXPECT_TRUE(all_finite(dx[d])) << to_string(dt) << " device " << d;
    }
    const core::StepReport& report = q.last_report();
    EXPECT_EQ(report.compute_dtype, dt);

    // Fig-10 payload axis: bf16 halves the alltoall bytes exactly; int8
    // pays one fp32 scale per row on top of the 4x element shrink.
    if (dt == DType::kBF16) {
      EXPECT_EQ(report.alltoall_payload_bytes,
                f32_report.alltoall_payload_bytes / 2);
    } else {
      EXPECT_LT(report.alltoall_payload_bytes,
                f32_report.alltoall_payload_bytes / 2);
      EXPECT_GT(report.alltoall_payload_bytes,
                f32_report.alltoall_payload_bytes / 8);
    }

    // Fig-9 weight axis: quantized copies of W1+W2 per local expert.
    const std::uint64_t per_expert =
        quantized_bytes(16, 48, dt) + quantized_bytes(48, 16, dt);
    EXPECT_EQ(report.expert_weight_bytes, per_expert * 1);  // 4 experts / 4

    // Payload rings + staging shrink: the busiest device's activation
    // peak must drop vs fp32 (T_DI/T_DO rings accounted in wire format).
    EXPECT_LT(report.memory.activations, f32_report.memory.activations)
        << to_string(dt);
  }
}

TEST(MixedPrecisionLayer, F32DefaultBitwisePin) {
  // A layer that never mentions compute_dtype and one that pins kF32
  // explicitly must produce bitwise identical outputs — the dtype plumbing
  // may not perturb the default trajectory.
  sim::Cluster ca = sim::Cluster::dgx_a100_pod(1, 2);
  sim::Cluster cb = sim::Cluster::dgx_a100_pod(1, 2);
  core::MoELayerOptions oa;
  oa.d_model = 16;
  oa.d_hidden = 48;
  oa.num_experts = 4;
  oa.num_partitions = 2;
  oa.seed = 21;
  core::MoELayerOptions ob = oa;
  ob.compute_dtype = DType::kF32;
  core::MoELayer a(ca, oa), b(cb, ob);
  auto inputs = layer_inputs(2, 24, 16, 17);
  auto ya = a.forward(inputs);
  auto yb = b.forward(inputs);
  ASSERT_EQ(ya.size(), yb.size());
  for (std::size_t d = 0; d < ya.size(); ++d) {
    for (std::int64_t i = 0; i < ya[d].numel(); ++i) {
      ASSERT_EQ(bits_of(ya[d].data()[i]), bits_of(yb[d].data()[i]))
          << "device " << d << " i " << i;
    }
  }
  std::vector<Tensor> grads;
  for (auto& out : ya) grads.push_back(Tensor(out.shape()));
  a.backward(grads);
  b.backward(grads);
}

TEST(MixedPrecisionLayer, ServePlanReportsDtypeAndCurves) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  core::MoELayerOptions o = mixed_options(DType::kBF16);
  o.num_experts = 2;
  core::MoELayer layer(cluster, o);
  serve::SloPolicyOptions so;
  so.max_tokens_per_device = 16;
  serve::SloSelector selector(layer, so);
  const serve::ServePlan plan = selector.plan();
  EXPECT_EQ(plan.compute_dtype, DType::kBF16);
  EXPECT_NE(plan.curve_provenance.find("gemm"), std::string::npos);
  EXPECT_NE(plan.summary().find("bf16"), std::string::npos);
}

}  // namespace
}  // namespace mpipe
