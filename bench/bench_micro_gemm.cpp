/// google-benchmark microbench: the functional GEMM kernels that carry all
/// expert math in full (numeric) execution mode.
///
/// Covers all three transpose variants of the packed micro-kernel path,
/// the fused bias/activation epilogues, and — as `BM_Scalar*` — the
/// pre-packing scalar kernels this repo shipped before the rewrite, kept
/// here so every run reports the packed-vs-scalar GFLOP/s ratio on the
/// same machine (items_per_second == FLOP/s).
///
/// Every row but the *Pool ones is one kernel on one pool worker (main()
/// pins the shared pool, the end-to-end benchmark's setting): parallel_for
/// runs inline, so the rows keep the default clock, the main thread's CPU
/// time, and it covers all the work. BM_GemmNNPool and BM_GemmFFNPool run
/// the largest square and FFN GEMMs fanned out over the machine-sized pool
/// and use MeasureProcessCPUTime() (all threads). items_per_second is FLOP
/// per CPU second, which is what the perf gate compares.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/rng.h"
#include "micro_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/random_init.h"

namespace {

using namespace mpipe;

// ---- pre-rewrite scalar kernels (baseline under identical flags) ----------

void scalar_gemm_nn(const Tensor& a, const Tensor& b, Tensor& c) {
  constexpr std::int64_t kBlockM = 64, kBlockN = 128, kBlockK = 128;
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  c.zero();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::int64_t i0 = 0; i0 < m; i0 += kBlockM) {
    const std::int64_t mb = std::min(kBlockM, m - i0);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::int64_t kb = std::min(kBlockK, k - k0);
      for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
        const std::int64_t nb = std::min(kBlockN, n - j0);
        const float* ap = pa + i0 * k + k0;
        const float* bp = pb + k0 * n + j0;
        float* cp = pc + i0 * n + j0;
        for (std::int64_t i = 0; i < mb; ++i) {
          for (std::int64_t kk = 0; kk < kb; ++kk) {
            const float aik = ap[i * k + kk];
            if (aik == 0.0f) continue;
            const float* brow = bp + kk * n;
            float* crow = cp + i * n;
            for (std::int64_t j = 0; j < nb; ++j) crow[j] += aik * brow[j];
          }
        }
      }
    }
  }
}

void scalar_gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  c.zero();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(arow[kk]) * brow[kk];
      }
      crow[j] += static_cast<float>(acc);
    }
  }
}

void scalar_gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  c.zero();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aki = pa[kk * m + i];
      if (aki == 0.0f) continue;
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

// ---- harness --------------------------------------------------------------

void flops_counter(benchmark::State& state, std::int64_t m, std::int64_t n,
                   std::int64_t k) {
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(gemm_flops(m, n, k)));
}

template <typename Fn>
void run_square(benchmark::State& state, Fn&& fn) {
  const std::int64_t s = state.range(0);
  Rng rng(1);
  Tensor a(Shape{s, s}), b(Shape{s, s}), c(Shape{s, s});
  init_normal(a, rng);
  init_normal(b, rng);
  for (auto _ : state) {
    fn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  flops_counter(state, s, s, s);
}

// ---- packed kernels -------------------------------------------------------

void BM_GemmNN(benchmark::State& state) {
  run_square(state, [](const Tensor& a, const Tensor& b, Tensor& c) {
    gemm(a, b, c);
  });
}
BENCHMARK(BM_GemmNN)->Arg(256)->Arg(512)->Arg(1024);

void BM_GemmNT(benchmark::State& state) {
  run_square(state, [](const Tensor& a, const Tensor& b, Tensor& c) {
    gemm_nt(a, b, c);
  });
}
BENCHMARK(BM_GemmNT)->Arg(256)->Arg(512)->Arg(1024);

void BM_GemmTN(benchmark::State& state) {
  run_square(state, [](const Tensor& a, const Tensor& b, Tensor& c) {
    gemm_tn(a, b, c);
  });
}
BENCHMARK(BM_GemmTN)->Arg(256)->Arg(512)->Arg(1024);

/// The paper's FFN1 shape family: (tokens x M) x (M x H).
void BM_GemmFFN(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const std::int64_t m = state.range(1);
  const std::int64_t h = state.range(2);
  Rng rng(1);
  Tensor a(Shape{rows, m}), b(Shape{m, h}), c(Shape{rows, h});
  init_normal(a, rng);
  init_normal(b, rng);
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  flops_counter(state, rows, h, m);
}
BENCHMARK(BM_GemmFFN)
    ->Args({64, 64, 256})
    ->Args({256, 256, 1024})
    ->Args({512, 1024, 4096});

// The same kernels fanned out over the machine-sized pool: what the pool's
// dispatch and the workers' chunks cost per FLOP.
void BM_GemmNNPool(benchmark::State& state) {
  const bench::MachineSizedPool pool;
  BM_GemmNN(state);
}
BENCHMARK(BM_GemmNNPool)->Arg(1024)->MeasureProcessCPUTime();

void BM_GemmFFNPool(benchmark::State& state) {
  const bench::MachineSizedPool pool;
  BM_GemmFFN(state);
}
BENCHMARK(BM_GemmFFNPool)->Args({512, 1024, 4096})->MeasureProcessCPUTime();

// ---- expert panels ---------------------------------------------------------

/// The expert FFN's GEMMs at the training-step panel shape (64 routed rows,
/// d_model 128, d_hidden 512). Args are the logical m, k, n of C = A*B;
/// each GEMM is the call ExpertFFN makes at that shape.
void BM_PanelFfn1(benchmark::State& state) {  // forward FFN1, bias+ReLU
  const std::int64_t m = state.range(0), k = state.range(1),
                     n = state.range(2);
  Rng rng(1);
  Tensor a(Shape{m, k}), b(Shape{k, n}), bias(Shape{n}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(bias, rng);
  for (auto _ : state) {
    gemm_bias_act(a, b, bias, GemmEpilogue::kBiasReLU, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  flops_counter(state, m, n, k);
}
BENCHMARK(BM_PanelFfn1)->Args({64, 128, 512});

void BM_PanelFfn2(benchmark::State& state) {  // forward FFN2, bias
  const std::int64_t m = state.range(0), k = state.range(1),
                     n = state.range(2);
  Rng rng(1);
  Tensor a(Shape{m, k}), b(Shape{k, n}), bias(Shape{n}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(bias, rng);
  for (auto _ : state) {
    gemm_bias(a, b, bias, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  flops_counter(state, m, n, k);
}
BENCHMARK(BM_PanelFfn2)->Args({64, 512, 128});

void BM_PanelDgradNT(benchmark::State& state) {  // backward dX = dY W^T
  const std::int64_t m = state.range(0), k = state.range(1),
                     n = state.range(2);
  Rng rng(1);
  Tensor a(Shape{m, k}), b(Shape{n, k}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  for (auto _ : state) {
    gemm_nt(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  flops_counter(state, m, n, k);
}
BENCHMARK(BM_PanelDgradNT)->Args({64, 128, 512})->Args({64, 512, 128});

void BM_PanelWgradTN(benchmark::State& state) {  // backward dW, db
  const std::int64_t m = state.range(0), k = state.range(1),
                     n = state.range(2);
  Rng rng(1);
  Tensor a(Shape{k, m}), b(Shape{k, n}), c(Shape{m, n}), db(Shape{n});
  init_normal(a, rng);
  init_normal(b, rng);
  for (auto _ : state) {
    gemm_tn_bias_grad(a, b, c, db, /*accumulate=*/true);
    benchmark::DoNotOptimize(c.data());
    benchmark::DoNotOptimize(db.data());
    benchmark::ClobberMemory();
  }
  flops_counter(state, m, n, k);
}
BENCHMARK(BM_PanelWgradTN)->Args({512, 64, 128})->Args({128, 64, 512});

// ---- mixed-precision B operand (pack-time dequant) -------------------------

/// Quantized-weight GEMM at the FFN1 shape: identical compute core, the B
/// panels dequantize bf16/int8 -> fp32 at pack time. Reported GFLOP/s vs
/// BM_GemmBiasReluFused is the pack-dequant overhead; bytes touched on the
/// weight stream halve (bf16) or quarter (int8).
template <DType kDt>
void run_gemm_quant(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  Rng rng(1);
  Tensor a(Shape{s, s}), b(Shape{s, s}), bias(Shape{s}), c(Shape{s, s});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(bias, rng);
  const QuantizedMatrix q = quantize_matrix(b, kDt);
  QuantView v;
  v.dtype = kDt;
  v.rows = q.rows;
  v.cols = q.cols;
  v.data = kDt == DType::kBF16 ? static_cast<const void*>(q.bf16.data())
                               : static_cast<const void*>(q.i8.data());
  v.row_scales = kDt == DType::kI8 ? q.scales.data() : nullptr;
  for (auto _ : state) {
    gemm_bias_act_q(a, v, bias, GemmEpilogue::kBiasReLU, c);
    benchmark::DoNotOptimize(c.data());
  }
  flops_counter(state, s, s, s);
  state.counters["weight_bytes"] =
      static_cast<double>(quantized_bytes(s, s, kDt));
}

void BM_GemmBf16(benchmark::State& state) {
  run_gemm_quant<DType::kBF16>(state);
}
BENCHMARK(BM_GemmBf16)->Arg(512)->Arg(1024);

void BM_GemmInt8(benchmark::State& state) {
  run_gemm_quant<DType::kI8>(state);
}
BENCHMARK(BM_GemmInt8)->Arg(512)->Arg(1024);

// ---- fused epilogue vs separate passes ------------------------------------

void BM_GemmBiasReluFused(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  Rng rng(1);
  Tensor a(Shape{s, s}), b(Shape{s, s}), bias(Shape{s}), c(Shape{s, s});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(bias, rng);
  for (auto _ : state) {
    gemm_bias_act(a, b, bias, GemmEpilogue::kBiasReLU, c);
    benchmark::DoNotOptimize(c.data());
  }
  flops_counter(state, s, s, s);
}
BENCHMARK(BM_GemmBiasReluFused)->Arg(512)->Arg(1024);

void BM_GemmBiasReluSeparate(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  Rng rng(1);
  Tensor a(Shape{s, s}), b(Shape{s, s}), bias(Shape{s}), c(Shape{s, s});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(bias, rng);
  for (auto _ : state) {
    gemm(a, b, c);
    add_bias_(c, bias);
    Tensor r = relu(c);
    benchmark::DoNotOptimize(r.data());
  }
  flops_counter(state, s, s, s);
}
BENCHMARK(BM_GemmBiasReluSeparate)->Arg(512)->Arg(1024);

// ---- fused dW+db backward epilogue vs two-pass ----------------------------

/// The backward weight-grad regime: dW(dim x dim) += act^T(rows x dim) dy
/// (rows x dim) plus db += colsum(dy), with `rows` the (often thin)
/// micro-batch expert panel and `dim` the 512^2 weight panel.

void BM_WgradDbFused(benchmark::State& state) {
  const std::int64_t rows = state.range(0), dim = state.range(1);
  Rng rng(1);
  Tensor act(Shape{rows, dim}), dy(Shape{rows, dim});
  Tensor gw(Shape{dim, dim}), gb(Shape{dim});
  init_normal(act, rng);
  init_normal(dy, rng);
  for (auto _ : state) {
    gemm_tn_bias_grad(act, dy, gw, gb, /*accumulate=*/true);
    benchmark::DoNotOptimize(gw.data());
    benchmark::DoNotOptimize(gb.data());
  }
  flops_counter(state, dim, dim, rows);
}
BENCHMARK(BM_WgradDbFused)->Args({64, 512})->Args({512, 512});

/// Pre-epilogue two-pass form: the dW GEMM, then a separate full pass
/// over dy for db (bias_backward allocates and reduces, add_ accumulates).
void BM_WgradDbUnfused(benchmark::State& state) {
  const std::int64_t rows = state.range(0), dim = state.range(1);
  Rng rng(1);
  Tensor act(Shape{rows, dim}), dy(Shape{rows, dim});
  Tensor gw(Shape{dim, dim}), gb(Shape{dim});
  init_normal(act, rng);
  init_normal(dy, rng);
  for (auto _ : state) {
    gemm_tn(act, dy, gw, /*accumulate=*/true);
    add_(gb, bias_backward(dy));
    benchmark::DoNotOptimize(gw.data());
    benchmark::DoNotOptimize(gb.data());
  }
  flops_counter(state, dim, dim, rows);
}
BENCHMARK(BM_WgradDbUnfused)->Args({64, 512})->Args({512, 512});

/// The seed repo's backward: pre-rewrite scalar TN kernel for dW, then
/// the separate db pass — the "unfused two-pass backward" the fused
/// epilogue replaces end to end.
void BM_WgradDbScalarTwoPass(benchmark::State& state) {
  const std::int64_t rows = state.range(0), dim = state.range(1);
  Rng rng(1);
  Tensor act(Shape{rows, dim}), dy(Shape{rows, dim});
  Tensor gw(Shape{dim, dim}), gb(Shape{dim});
  init_normal(act, rng);
  init_normal(dy, rng);
  for (auto _ : state) {
    scalar_gemm_tn(act, dy, gw);
    add_(gb, bias_backward(dy));
    benchmark::DoNotOptimize(gw.data());
    benchmark::DoNotOptimize(gb.data());
  }
  flops_counter(state, dim, dim, rows);
}
BENCHMARK(BM_WgradDbScalarTwoPass)->Args({64, 512})->Args({512, 512});

// ---- pre-rewrite scalar baselines -----------------------------------------

void BM_ScalarGemmNN(benchmark::State& state) {
  run_square(state, scalar_gemm_nn);
}
BENCHMARK(BM_ScalarGemmNN)->Arg(512)->Arg(1024);

void BM_ScalarGemmNT(benchmark::State& state) {
  run_square(state, scalar_gemm_nt);
}
BENCHMARK(BM_ScalarGemmNT)->Arg(512)->Arg(1024);

void BM_ScalarGemmTN(benchmark::State& state) {
  run_square(state, scalar_gemm_tn);
}
BENCHMARK(BM_ScalarGemmTN)->Arg(512)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  return mpipe::bench::run_on_one_worker(argc, argv);
}
