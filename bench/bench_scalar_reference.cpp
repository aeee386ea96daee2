/// google-benchmark comparison binary: the library's packed GEMMs, fused
/// weight-grad epilogue and vectorized Adam step against the pre-rewrite
/// scalar kernels they replaced, timed side by side in one run on the same
/// machine. The scalar kernels are copies kept here; no library code runs
/// in them, so they say nothing about a library change and are not part of
/// the perf gate (bench/run_benches.sh does not run this binary). It is the
/// source of the packed-vs-scalar tables in src/tensor/README.md:
///
///   build/bench/bench_scalar_reference --benchmark_repetitions=5 \
///       --benchmark_display_aggregates_only=true
///
/// main() pins the shared pool to one worker like the gated micro benches,
/// so every row is one kernel on one core. items_per_second is FLOP per CPU
/// second (GEMM and weight-grad rows) or parameters per CPU second (Adam).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "micro_gemm.h"
#include "micro_pool.h"
#include "runtime/adam.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"

namespace {

using namespace mpipe;
using bench::flops_counter;
using bench::run_square;

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

// ---- square GEMMs: packed library kernel vs scalar copy --------------------

void BM_GemmNN(benchmark::State& state) {
  run_square(state, [](const Tensor& a, const Tensor& b, Tensor& c) {
    gemm(a, b, c);
  });
}
BENCHMARK(BM_GemmNN)->Arg(512)->Arg(1024);

void BM_ScalarGemmNN(benchmark::State& state) {
  run_square(state, scalar_gemm_nn);
}
BENCHMARK(BM_ScalarGemmNN)->Arg(512)->Arg(1024);

void BM_GemmNT(benchmark::State& state) {
  run_square(state, [](const Tensor& a, const Tensor& b, Tensor& c) {
    gemm_nt(a, b, c);
  });
}
BENCHMARK(BM_GemmNT)->Arg(512)->Arg(1024);

void BM_ScalarGemmNT(benchmark::State& state) {
  run_square(state, scalar_gemm_nt);
}
BENCHMARK(BM_ScalarGemmNT)->Arg(512)->Arg(1024);

void BM_GemmTN(benchmark::State& state) {
  run_square(state, [](const Tensor& a, const Tensor& b, Tensor& c) {
    gemm_tn(a, b, c);
  });
}
BENCHMARK(BM_GemmTN)->Arg(512)->Arg(1024);

void BM_ScalarGemmTN(benchmark::State& state) {
  run_square(state, scalar_gemm_tn);
}
BENCHMARK(BM_ScalarGemmTN)->Arg(512)->Arg(1024);

// ---- weight-grad backward: fused epilogue vs the seed's two passes ---------

/// dW(dim x dim) += act^T(rows x dim) dy(rows x dim) plus db += colsum(dy).
/// The scalar form is the seed repo's backward: the scalar TN kernel for
/// dW, then a separate db pass.
template <bool kScalar>
void run_wgrad_db(benchmark::State& state) {
  const std::int64_t rows = state.range(0), dim = state.range(1);
  Rng rng(1);
  Tensor act(Shape{rows, dim}), dy(Shape{rows, dim});
  Tensor gw(Shape{dim, dim}), gb(Shape{dim});
  init_normal(act, rng);
  init_normal(dy, rng);
  for (auto _ : state) {
    if constexpr (kScalar) {
      scalar_gemm_tn(act, dy, gw);
      add_(gb, bias_backward(dy));
    } else {
      gemm_tn_bias_grad(act, dy, gw, gb, /*accumulate=*/true);
    }
    benchmark::DoNotOptimize(gw.data());
    benchmark::DoNotOptimize(gb.data());
  }
  flops_counter(state, dim, dim, rows);
}

void BM_WgradDbFused(benchmark::State& state) { run_wgrad_db<false>(state); }
BENCHMARK(BM_WgradDbFused)->Args({64, 512})->Args({512, 512});

void BM_WgradDbScalarTwoPass(benchmark::State& state) {
  run_wgrad_db<true>(state);
}
BENCHMARK(BM_WgradDbScalarTwoPass)->Args({64, 512})->Args({512, 512});

// ---- Adam step: vectorized library step vs the serial scalar loop ----------

void BM_AdamStep(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(13);
  Tensor w(Shape{n}), g(Shape{n});
  init_normal(w, rng);
  init_normal(g, rng);
  runtime::AdamOptions opt;
  opt.weight_decay = 0.01f;
  runtime::Adam adam({&w}, {&g}, opt);
  for (auto _ : state) {
    adam.step();
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_AdamStep)->Arg(1 << 16)->Arg(1 << 22);

void BM_AdamStepScalar(benchmark::State& state) {
  // The pre-vectorization implementation: serial scalar element loop.
  const std::int64_t n = state.range(0);
  Rng rng(13);
  Tensor w(Shape{n}), g(Shape{n});
  init_normal(w, rng);
  init_normal(g, rng);
  std::vector<float> m(static_cast<std::size_t>(n), 0.0f);
  std::vector<float> v(static_cast<std::size_t>(n), 0.0f);
  const float lr = 1e-3f, b1 = 0.9f, b2 = 0.999f, eps = 1e-8f, wd = 0.01f;
  std::int64_t t = 0;
  float* p = w.data();
  const float* gd = g.data();
  for (auto _ : state) {
    ++t;
    const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
    for (std::int64_t k = 0; k < n; ++k) {
      const float grad = gd[k] + wd * p[k];
      m[static_cast<std::size_t>(k)] =
          b1 * m[static_cast<std::size_t>(k)] + (1.0f - b1) * grad;
      v[static_cast<std::size_t>(k)] =
          b2 * v[static_cast<std::size_t>(k)] + (1.0f - b2) * grad * grad;
      const float m_hat = m[static_cast<std::size_t>(k)] / bc1;
      const float v_hat = v[static_cast<std::size_t>(k)] / bc2;
      p[k] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_AdamStepScalar)->Arg(1 << 16)->Arg(1 << 22);

}  // namespace

int main(int argc, char** argv) {
  return mpipe::bench::run_on_one_worker(argc, argv);
}
