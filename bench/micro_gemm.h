#pragma once
/// GEMM row harness shared by bench_micro_gemm and bench_scalar_reference:
/// items_per_second is FLOP per CPU second.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/random_init.h"

namespace mpipe::bench {

/// Counts the FLOP of `state.iterations()` (m x k) * (k x n) products.
inline void flops_counter(benchmark::State& state, std::int64_t m,
                          std::int64_t n, std::int64_t k) {
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(gemm_flops(m, n, k)));
}

/// Times fn(a, b, c) on random square operands of side state.range(0).
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

}  // namespace mpipe::bench
