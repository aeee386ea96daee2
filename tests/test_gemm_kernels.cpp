// The packed GEMM micro-kernel path: every transpose variant and fused
// epilogue against a naive reference on ragged shapes, the bitwise
// invariance pins (pool size, row-by-row), the grain contract
// of the lock-light parallel_for, and a per-token reconstruction of the
// dispatcher's expert-major receive layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "moe/dispatcher.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

/// Scalar triple-loop reference with fp64 accumulation.
Tensor reference_gemm(const Tensor& a, const Tensor& b, bool trans_a,
                      bool trans_b, const Tensor* c_in = nullptr) {
  const std::int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::int64_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
  Tensor c(Shape{m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = c_in ? c_in->at(i, j) : 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = trans_a ? a.at(kk, i) : a.at(i, kk);
        const float bv = trans_b ? b.at(j, kk) : b.at(kk, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_close(const Tensor& got, const Tensor& want, float rtol = 1e-3f) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(allclose(got, want, rtol, 1e-4f))
      << "max |diff| = " << max_abs_diff(got, want);
}

struct GemmShape {
  std::int64_t m, k, n;
};

class GemmVariants : public testing::TestWithParam<GemmShape> {};

TEST_P(GemmVariants, NNMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(7);
  Tensor a(Shape{m, k}), b(Shape{k, n}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  gemm(a, b, c);
  expect_close(c, reference_gemm(a, b, false, false));
}

TEST_P(GemmVariants, NNAccumulates) {
  const auto [m, k, n] = GetParam();
  Rng rng(8);
  Tensor a(Shape{m, k}), b(Shape{k, n}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(c, rng);
  const Tensor c0 = c.clone();
  gemm(a, b, c, /*accumulate=*/true);
  expect_close(c, reference_gemm(a, b, false, false, &c0));
}

TEST_P(GemmVariants, NTMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(9);
  Tensor a(Shape{m, k}), b(Shape{n, k}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  gemm_nt(a, b, c);
  expect_close(c, reference_gemm(a, b, false, true));
}

TEST_P(GemmVariants, NTAccumulates) {
  const auto [m, k, n] = GetParam();
  Rng rng(10);
  Tensor a(Shape{m, k}), b(Shape{n, k}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(c, rng);
  const Tensor c0 = c.clone();
  gemm_nt(a, b, c, /*accumulate=*/true);
  expect_close(c, reference_gemm(a, b, false, true, &c0));
}

TEST_P(GemmVariants, TNMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(11);
  Tensor a(Shape{k, m}), b(Shape{k, n}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  gemm_tn(a, b, c);
  expect_close(c, reference_gemm(a, b, true, false));
}

TEST_P(GemmVariants, TNAccumulates) {
  const auto [m, k, n] = GetParam();
  Rng rng(12);
  Tensor a(Shape{k, m}), b(Shape{k, n}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(c, rng);
  const Tensor c0 = c.clone();
  gemm_tn(a, b, c, /*accumulate=*/true);
  expect_close(c, reference_gemm(a, b, true, false, &c0));
}

TEST_P(GemmVariants, FusedEpiloguesMatchSeparatePasses) {
  const auto [m, k, n] = GetParam();
  Rng rng(13);
  Tensor a(Shape{m, k}), b(Shape{k, n}), bias(Shape{n});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(bias, rng);

  Tensor want = reference_gemm(a, b, false, false);
  add_bias_(want, bias);

  Tensor got(Shape{m, n});
  gemm_bias(a, b, bias, got);
  expect_close(got, want);

  gemm_bias_act(a, b, bias, GemmEpilogue::kBiasReLU, got);
  expect_close(got, relu(want));

  gemm_bias_act(a, b, bias, GemmEpilogue::kBiasGELU, got);
  expect_close(got, gelu(want));
}

// ---- invariance pins --------------------------------------------------------
// Every entry point's output is a pure function of its inputs: bitwise the
// same at any pool size, and row i of C bitwise equals the one-row GEMM of
// row i of A (serving's batch-vs-solo check relies on the latter).

/// One GEMM entry point over a fixed B (and bias): `run` reads the logical
/// A (stored k x m when `trans_a`) and the initial C, writes C, and returns
/// any second output (the bias gradient) or an undefined tensor.
struct EntryPoint {
  std::string name;
  bool trans_a;
  std::function<Tensor(const Tensor& a, Tensor& c)> run;
};

std::vector<EntryPoint> entry_points(const Tensor& b, const Tensor& bt,
                                     const Tensor& bias) {
  std::vector<EntryPoint> eps;
  for (bool acc : {false, true}) {
    const std::string sfx = acc ? "_acc" : "";
    eps.push_back({"gemm" + sfx, false, [&b, acc](const Tensor& a, Tensor& c) {
                     gemm(a, b, c, acc);
                     return Tensor();
                   }});
    eps.push_back({"gemm_nt" + sfx, false,
                   [&bt, acc](const Tensor& a, Tensor& c) {
                     gemm_nt(a, bt, c, acc);
                     return Tensor();
                   }});
    eps.push_back({"gemm_tn" + sfx, true,
                   [&b, acc](const Tensor& a, Tensor& c) {
                     gemm_tn(a, b, c, acc);
                     return Tensor();
                   }});
    eps.push_back({"gemm_tn_bias_grad" + sfx, true,
                   [&b, acc](const Tensor& a, Tensor& c) {
                     Tensor db(Shape{b.dim(1)});
                     gemm_tn_bias_grad(a, b, c, db, acc);
                     return db;
                   }});
  }
  for (GemmEpilogue ep : {GemmEpilogue::kNone, GemmEpilogue::kBias,
                          GemmEpilogue::kBiasReLU, GemmEpilogue::kBiasGELU}) {
    eps.push_back({"gemm_bias_act" + std::to_string(static_cast<int>(ep)),
                   false, [&b, &bias, ep](const Tensor& a, Tensor& c) {
                     gemm_bias_act(a, b, bias, ep, c);
                     return Tensor();
                   }});
  }
  eps.push_back({"gemm_bias", false, [&b, &bias](const Tensor& a, Tensor& c) {
                   gemm_bias(a, b, bias, c);
                   return Tensor();
                 }});
  eps.push_back({"matmul", false, [&b](const Tensor& a, Tensor& c) {
                   c = matmul(a, b);
                   return Tensor();
                 }});
  return eps;
}

/// Row i of the logical A: a (1 x k) slice, or (k x 1) when A is stored
/// transposed.
Tensor a_row(const Tensor& a, bool trans_a, std::int64_t i) {
  if (!trans_a) return a.slice_rows(i, i + 1);
  Tensor r(Shape{a.dim(0), 1});
  for (std::int64_t kk = 0; kk < a.dim(0); ++kk) r.at(kk, 0) = a.at(kk, i);
  return r;
}

void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.defined(), want.defined()) << what;
  if (!want.defined()) return;
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    std::uint32_t g, w;
    std::memcpy(&g, got.data() + i, sizeof(g));
    std::memcpy(&w, want.data() + i, sizeof(w));
    ASSERT_EQ(g, w) << what << " element " << i;
  }
}

/// Inputs shared by the pins: A in both storage orders, B and B^T, bias and
/// a nonzero initial C so the accumulate variants read it.
struct PinInputs {
  Tensor a, at, b, bt, bias, c0;
  PinInputs(const GemmShape& s, std::uint64_t seed) {
    Rng rng(seed);
    a = Tensor(Shape{s.m, s.k});
    at = Tensor(Shape{s.k, s.m});
    b = Tensor(Shape{s.k, s.n});
    bt = Tensor(Shape{s.n, s.k});
    bias = Tensor(Shape{s.n});
    c0 = Tensor(Shape{s.m, s.n});
    for (Tensor* t : {&a, &at, &b, &bt, &bias, &c0}) init_normal(*t, rng);
  }
  const Tensor& a_for(const EntryPoint& ep) const {
    return ep.trans_a ? at : a;
  }
};

TEST_P(GemmVariants, BitwiseAcrossPoolSizes) {
  const PinInputs in(GetParam(), 14);
  const auto eps = entry_points(in.b, in.bt, in.bias);
  std::vector<std::pair<Tensor, Tensor>> reference;
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool::reset_shared(threads);
    for (std::size_t e = 0; e < eps.size(); ++e) {
      Tensor c = in.c0.clone();
      Tensor aux = eps[e].run(in.a_for(eps[e]), c);
      if (threads == 1) {
        reference.emplace_back(c, aux);
        continue;
      }
      const std::string what =
          eps[e].name + " threads=" + std::to_string(threads);
      expect_bitwise(c, reference[e].first, what);
      expect_bitwise(aux, reference[e].second, what + " aux");
    }
  }
  ThreadPool::reset_shared(0);  // restore the machine-sized pool
}

TEST_P(GemmVariants, RowsMatchOneRowGemm) {
  const PinInputs in(GetParam(), 15);
  for (const EntryPoint& ep : entry_points(in.b, in.bt, in.bias)) {
    const Tensor& a = in.a_for(ep);
    Tensor c = in.c0.clone();
    const Tensor aux = ep.run(a, c);
    for (std::int64_t i = 0; i < c.dim(0); ++i) {
      Tensor row = in.c0.slice_rows(i, i + 1);
      const Tensor row_aux = ep.run(a_row(a, ep.trans_a, i), row);
      const std::string what = ep.name + " row " + std::to_string(i);
      expect_bitwise(row, c.slice_rows(i, i + 1), what);
      expect_bitwise(row_aux, aux, what + " aux");
    }
  }
}

// Ragged shapes around every blocking boundary: unit, primes, tall/skinny,
// wide/flat, and micro-tile edges (the packed kernel is 8x16 over
// 64x128x256 panels); the expert-panel shapes of the FFN forward (64 rows
// through 128 -> 512 and 512 -> 128) and weight-grad backward (K = 64
// rows); and a multi-slice K that is not a multiple of the 8-wide pack
// transpose.
INSTANTIATE_TEST_SUITE_P(
    Ragged, GemmVariants,
    testing::Values(GemmShape{1, 1, 1}, GemmShape{17, 13, 29},
                    GemmShape{8, 16, 16}, GemmShape{9, 257, 17},
                    GemmShape{257, 8, 3}, GemmShape{3, 5, 301},
                    GemmShape{65, 129, 127}, GemmShape{64, 256, 128},
                    GemmShape{100, 300, 70}, GemmShape{64, 128, 512},
                    GemmShape{64, 512, 128}, GemmShape{512, 64, 128},
                    GemmShape{128, 64, 512}, GemmShape{40, 333, 96}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "k" +
             std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

TEST(GemmEdge, MatmulAndZeroInput) {
  Rng rng(3);
  Tensor a(Shape{5, 4}), b(Shape{4, 6});
  init_normal(a, rng);
  init_normal(b, rng);
  expect_close(matmul(a, b), reference_gemm(a, b, false, false));

  // All-zero A must produce exactly zero (and not disturb accumulate).
  Tensor z(Shape{5, 4});
  Tensor c(Shape{5, 6});
  c.fill(2.0f);
  gemm(z, b, c, /*accumulate=*/true);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_FLOAT_EQ(c.at(i), 2.0f);
  }
  gemm(z, b, c, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(c.abs_max(), 0.0f);
}

// ---- parallel_for contract ------------------------------------------------

TEST(ParallelFor, ChunkBoundariesHonorGrain) {
  ThreadPool pool(4);
  const std::size_t n = 100, grain = 16;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(begin, end);
      },
      grain);
  // Chunks start on grain multiples and tile [0, n) exactly once.
  std::vector<bool> covered(n, false);
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin % grain, 0u) << "chunk start off the grain grid";
    ASSERT_LT(begin, end);
    ASSERT_LE(end, n);
    for (std::size_t i = begin; i < end; ++i) {
      EXPECT_FALSE(covered[i]);
      covered[i] = true;
    }
  }
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](bool v) { return v; }));
}

TEST(ParallelFor, SmallRangeRunsInlineAsOneChunk) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(
      10,
      [&](std::size_t begin, std::size_t end) {
        chunks.emplace_back(begin, end);
      },
      64);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 10}));
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   64,
                   [&](std::size_t begin, std::size_t) {
                     if (begin == 0) throw std::runtime_error("boom");
                   },
                   1),
               std::runtime_error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_sum{0};
  pool.parallel_for(
      8,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          // Nested parallel_for on the same pool: must run (inline on a
          // worker, participating from the caller) without deadlocking.
          pool.parallel_for(
              4, [&](std::size_t b, std::size_t e) {
                inner_sum +=
                    static_cast<int>(e) - static_cast<int>(b);
              },
              1);
        }
      },
      1);
  EXPECT_EQ(inner_sum.load(), 8 * 4);
}

// ---- dispatcher span layout ----------------------------------------------

TEST(DispatcherSpans, SpansMatchPerRowIndexReconstruction) {
  // Reconstruct the receive layout token by token (local expert by local
  // expert; within one, source devices in rank order, each source's tokens
  // in its expert-sorted send order) and check that every token's
  // recv_row and every expert's span agree with it.
  const int devices = 3, experts_per_device = 4, partitions = 2;
  const std::int64_t tokens = 53;
  Rng rng(99);
  std::vector<std::vector<std::int64_t>> expert_of(devices);
  for (auto& v : expert_of) {
    for (std::int64_t t = 0; t < tokens; ++t) {
      v.push_back(static_cast<std::int64_t>(
          rng.uniform_index(devices * experts_per_device)));
    }
  }
  const auto plan = moe::Dispatcher::build(expert_of, devices,
                                           experts_per_device, partitions);

  for (const auto& part : plan.parts) {
    for (int dst = 0; dst < devices; ++dst) {
      std::int64_t row = 0;
      for (int local = 0; local < experts_per_device; ++local) {
        const std::int64_t e = dst * experts_per_device + local;
        const std::int64_t first = row;
        for (int srcd = 0; srcd < devices; ++srcd) {
          const auto& routing = part.src[static_cast<std::size_t>(srcd)];
          for (std::size_t i = 0; i < routing.order.size(); ++i) {
            if (expert_of[static_cast<std::size_t>(srcd)]
                         [static_cast<std::size_t>(routing.order[i])] != e) {
              continue;
            }
            EXPECT_EQ(routing.recv_row[i], row)
                << "dst " << dst << " expert " << local << " src " << srcd;
            ++row;
          }
        }
        EXPECT_EQ(part.expert_rows[static_cast<std::size_t>(dst)]
                                  [static_cast<std::size_t>(local)],
                  (moe::RowSpan{first, row - first}))
            << "dst " << dst << " expert " << local;
      }
      EXPECT_EQ(part.recv_rows[static_cast<std::size_t>(dst)], row);
    }
  }
}

}  // namespace
}  // namespace mpipe
