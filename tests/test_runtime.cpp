// Training runtime: Adam math vs a hand-computed step, end-to-end loss
// descent under every strategy, dynamic batch sizes exercising Algorithm 1
// inside a real training loop, and the common utility layer.

#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "runtime/adam.h"
#include "tensor/random_init.h"
#include "runtime/model_zoo.h"
#include "runtime/trainer.h"
#include "runtime/workload.h"

namespace mpipe {
namespace {

TEST(Adam, MatchesHandComputedFirstStep) {
  Tensor w = Tensor::full(Shape{1}, 1.0f);
  Tensor g = Tensor::full(Shape{1}, 0.5f);
  runtime::AdamOptions opt;
  opt.lr = 0.1f;
  runtime::Adam adam({&w}, {&g}, opt);
  adam.step();
  // Bias-corrected first step: m_hat = g, v_hat = g^2 -> update = lr * g /
  // (|g| + eps) ~= lr.
  EXPECT_NEAR(w.at(0), 1.0f - 0.1f, 1e-4f);
  EXPECT_EQ(adam.step_count(), 1);
  EXPECT_EQ(adam.state_bytes(), 2u * 4);
}

TEST(Adam, WeightDecayPullsTowardZero) {
  Tensor w = Tensor::full(Shape{1}, 1.0f);
  Tensor g = Tensor::full(Shape{1}, 0.0f);
  runtime::AdamOptions opt;
  opt.lr = 0.1f;
  opt.weight_decay = 0.1f;
  runtime::Adam adam({&w}, {&g}, opt);
  adam.step();
  EXPECT_LT(w.at(0), 1.0f);
}

TEST(Adam, ValidatesBindings) {
  Tensor w(Shape{2});
  Tensor g(Shape{3});
  EXPECT_THROW(runtime::Adam({&w}, {&g}), CheckError);
  EXPECT_THROW(runtime::Adam({&w}, {}), CheckError);
}

TEST(Adam, VectorizedStepMatchesFp64Reference) {
  // The 8-lane step must stay numerically equivalent to the scalar Adam
  // recurrence on ragged sizes straddling the lane width (1, 7, 8, 9, ...)
  // — including the sizes whose tails exercise the scalar remainder loop.
  Rng rng(21);
  for (std::int64_t n : {std::int64_t{1}, std::int64_t{7}, std::int64_t{8},
                         std::int64_t{9}, std::int64_t{63}, std::int64_t{64},
                         std::int64_t{1000}, std::int64_t{8195}}) {
    Tensor w(Shape{n}), g(Shape{n});
    init_normal(w, rng);
    init_normal(g, rng);
    std::vector<double> p(static_cast<std::size_t>(n));
    for (std::int64_t k = 0; k < n; ++k) {
      p[static_cast<std::size_t>(k)] = w.at(k);
    }
    runtime::AdamOptions opt;
    opt.lr = 1e-2f;
    opt.weight_decay = 0.05f;
    runtime::Adam adam({&w}, {&g}, opt);
    std::vector<double> m(static_cast<std::size_t>(n), 0.0);
    std::vector<double> v(static_cast<std::size_t>(n), 0.0);
    for (int step = 1; step <= 3; ++step) {
      adam.step();
      const double bc1 = 1.0 - std::pow(static_cast<double>(opt.beta1), step);
      const double bc2 = 1.0 - std::pow(static_cast<double>(opt.beta2), step);
      for (std::int64_t k = 0; k < n; ++k) {
        const std::size_t i = static_cast<std::size_t>(k);
        const double grad = static_cast<double>(g.at(k)) +
                            static_cast<double>(opt.weight_decay) * p[i];
        m[i] = opt.beta1 * m[i] + (1.0 - opt.beta1) * grad;
        v[i] = opt.beta2 * v[i] + (1.0 - opt.beta2) * grad * grad;
        p[i] -= opt.lr * (m[i] / bc1) /
                (std::sqrt(v[i] / bc2) + static_cast<double>(opt.eps));
        EXPECT_NEAR(w.at(k), p[i], 5e-4)
            << "n=" << n << " step=" << step << " k=" << k;
      }
    }
  }
}

struct TrainCase {
  int partitions;
  bool reuse;
  core::ReuseStrategy strategy;
};

class TrainingDescent : public testing::TestWithParam<TrainCase> {};

TEST_P(TrainingDescent, LossDecreasesOverSteps) {
  const auto& c = GetParam();
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayerOptions o;
  o.d_model = 16;
  o.d_hidden = 32;
  o.num_experts = 4;
  o.num_partitions = c.partitions;
  o.memory_reuse = c.reuse;
  if (c.reuse) o.strategy = c.strategy;
  o.seed = 31;
  core::MoELayer layer(cluster, o);

  runtime::TrainerOptions topt;
  topt.workload.d_model = 16;
  topt.workload.tokens_per_device = 32;
  topt.workload.num_devices = 4;
  topt.workload.seed = 5;
  topt.adam.lr = 3e-3f;
  topt.steps = 12;
  topt.load_calibration = false;  // hermetic: no cwd-dependent curves
  runtime::Trainer trainer(layer, topt);
  const auto& metrics = trainer.run();
  EXPECT_LT(metrics.last_loss(), metrics.first_loss() * 0.9)
      << metrics.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TrainingDescent,
    testing::Values(TrainCase{1, false, core::ReuseStrategy::kNone},
                    TrainCase{2, false, core::ReuseStrategy::kNone},
                    TrainCase{2, true, core::ReuseStrategy::kS1},
                    TrainCase{4, true, core::ReuseStrategy::kS4}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.partitions) +
             (info.param.reuse ? core::to_string(info.param.strategy)
                               : std::string("raw"));
    });

TEST(TrainingDeterminism, AdamStepBitwiseAcrossThreadCounts) {
  // The vectorized Adam step fans out over the shared pool, but the
  // update is elementwise with lane paths pinned to absolute positions —
  // so the resulting parameters must be bit-identical for any pool size,
  // including sizes whose chunk layouts differ (1 vs 4 vs 8 workers over
  // a tensor big enough for >12 chunks at the 8192 grain).
  auto run_params = [](std::size_t threads) {
    ThreadPool::reset_shared(threads);
    Rng rng(55);
    const std::int64_t n = 100003;  // ragged: exercises the scalar tail
    Tensor w(Shape{n}), g(Shape{n});
    init_normal(w, rng);
    init_normal(g, rng);
    runtime::AdamOptions opt;
    opt.weight_decay = 0.01f;
    runtime::Adam adam({&w}, {&g}, opt);
    for (int i = 0; i < 3; ++i) adam.step();
    return std::vector<float>(w.data(), w.data() + n);
  };
  const auto p1 = run_params(1);
  const auto p4 = run_params(4);
  const auto p8 = run_params(8);
  ThreadPool::reset_shared(0);  // restore the machine-sized pool
  ASSERT_EQ(p1.size(), p4.size());
  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    // Bitwise, not approximate: EXPECT_EQ on floats.
    ASSERT_EQ(p1[i], p4[i]) << "element " << i;
    ASSERT_EQ(p1[i], p8[i]) << "element " << i;
  }
}

TEST(TrainingDeterminism, BitwiseIdenticalLossesAcrossThreadCounts) {
  // The GEMM tile grid, the bias-grad epilogue's column-range ownership,
  // the row-parallel softmax/layer-norm kernels, the vectorized Adam
  // step, and the concurrent op-graph executor are all designed so
  // results never depend on how work lands on workers. Lock that in: identical seeds must give bit-identical
  // losses under serial and parallel graph execution, each at 1, 4 and 8
  // pool threads. Sizes are chosen so the FFN GEMMs span multiple tiles
  // and parallel_for actually fans out (tile grid > 1, rows > grain).
  auto run_losses = [](std::size_t threads, bool parallel_execution) {
    ThreadPool::reset_shared(threads);
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayerOptions o;
    o.d_model = 64;
    o.d_hidden = 160;
    o.num_experts = 4;
    o.num_partitions = 2;
    o.memory_reuse = true;
    o.strategy = core::ReuseStrategy::kS1;
    o.parallel_execution = parallel_execution;
    o.seed = 77;
    core::MoELayer layer(cluster, o);
    runtime::TrainerOptions topt;
    topt.workload.d_model = 64;
    topt.workload.tokens_per_device = 96;
    topt.workload.num_devices = 4;
    topt.workload.seed = 9;
    topt.adam.lr = 1e-3f;
    topt.load_calibration = false;  // hermetic: no cwd-dependent curves
    std::vector<double> losses;
    runtime::Trainer trainer(layer, topt);
    for (int i = 0; i < 5; ++i) losses.push_back(trainer.train_step());
    return losses;
  };
  const auto reference = run_losses(1, /*parallel_execution=*/false);
  for (bool parallel : {false, true}) {
    for (std::size_t threads : {1u, 4u, 8u}) {
      if (!parallel && threads == 1) continue;  // the reference itself
      const auto losses = run_losses(threads, parallel);
      ASSERT_EQ(reference.size(), losses.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        // Bitwise, not approximate: EXPECT_EQ on doubles.
        EXPECT_EQ(reference[i], losses[i])
            << "step " << i << " (threads=" << threads
            << ", parallel_execution=" << parallel << ")";
      }
    }
  }
  ThreadPool::reset_shared(0);  // restore the machine-sized pool
}

TEST(TrainingAdaptive, DynamicBatchesReuseSearchState) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayerOptions o;
  o.d_model = 16;
  o.d_hidden = 32;
  o.num_experts = 4;
  o.num_partitions = 0;  // adaptive
  o.candidate_partitions = {1, 2, 4};
  o.memory_reuse = false;
  core::MoELayer layer(cluster, o);

  runtime::TrainerOptions topt;
  topt.workload.d_model = 16;
  topt.workload.tokens_per_device = 48;
  topt.workload.num_devices = 4;
  topt.workload.batch_jitter = 0.4;  // dynamic B, as in MoE training
  topt.steps = 10;
  topt.load_calibration = false;  // hermetic: no cwd-dependent curves
  runtime::Trainer trainer(layer, topt);
  trainer.run();
  const auto& stats = layer.searcher().stats();
  // Ten steps with jittered batches must not mean ten full searches.
  EXPECT_LT(stats.full_searches, 10u);
  EXPECT_GT(stats.cache_hits + stats.range_hits, 0u);
}

TEST(Workload, BatchTraceBucketsRecur) {
  const auto trace = runtime::batch_size_trace(100, 200, 50, 4, 1);
  EXPECT_EQ(trace.size(), 50u);
  std::set<std::int64_t> distinct(trace.begin(), trace.end());
  EXPECT_LE(distinct.size(), 4u);
  for (std::int64_t b : trace) {
    EXPECT_GE(b, 100);
    EXPECT_LE(b, 200);
  }
}

TEST(Workload, TargetsAreContraction) {
  runtime::WorkloadOptions wo;
  wo.d_model = 8;
  wo.tokens_per_device = 4;
  wo.num_devices = 2;
  runtime::WorkloadGenerator gen(wo);
  auto batch = gen.next_batch();
  auto targets = gen.targets_for(batch);
  ASSERT_EQ(targets.size(), 2u);
  for (std::size_t d = 0; d < targets.size(); ++d) {
    ASSERT_EQ(targets[d].shape(), batch[d].shape());
    EXPECT_NE(targets[d].data(), batch[d].data()) << "targets alias inputs";
    for (std::int64_t i = 0; i < batch[d].numel(); ++i) {
      // Bitwise: EXPECT_EQ on floats.
      EXPECT_EQ(targets[d].data()[i], 0.5f * batch[d].data()[i])
          << "device " << d << " element " << i;
    }
  }
  EXPECT_EQ(gen.last_batch_tokens(), 4);
}

TEST(ModelZoo, TableIIIConfigs) {
  EXPECT_EQ(runtime::gpt_s().d_model, 768);
  EXPECT_EQ(runtime::gpt_s().d_hidden, 3072);
  EXPECT_EQ(runtime::gpt_xl().d_model, 2048);
  EXPECT_EQ(runtime::gpt_xl().d_hidden, 8192);
  EXPECT_EQ(runtime::bert_l().d_model, 1024);
  EXPECT_EQ(runtime::bert_l().d_hidden, 4096);
  for (const auto& spec : runtime::paper_models()) {
    EXPECT_EQ(spec.num_experts, 64);
    EXPECT_EQ(spec.d_hidden, 4 * spec.d_model);  // H = 4M
  }
}

// ---- common utilities --------------------------------------------------------

TEST(Stats, RunningAndPercentiles) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5}, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(trimmed_mean({100, 1, 2, 3, -50}, 1), 2.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_THROW(geomean({1.0, -1.0}), CheckError);
}

TEST(Rng, ForkDecorrelatesAndZipfSkews) {
  Rng parent(1);
  Rng child = parent.fork();
  EXPECT_NE(parent.uniform(), child.uniform());

  Rng z(2);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 4000; ++i) ++counts[z.zipf(8, 1.2)];
  EXPECT_GT(counts[0], counts[7] * 3);
  // s = 0 degenerates to (roughly) uniform.
  Rng u(3);
  std::vector<int> flat(4, 0);
  for (int i = 0; i < 4000; ++i) ++flat[u.zipf(4, 0.0)];
  for (int c : flat) EXPECT_GT(c, 700);
}

// ---- Rng::fill_normal ---------------------------------------------------------
// The ziggurat's moments and tail, checked against N(0, 1) over 2^22 seeded
// samples. Each tolerance is ~5 standard errors of its statistic at that
// count (mean 1/2048, variance 1/1448, kurtosis 1/418, a CDF point at most
// 1/4096, the tail count ~1/49 of itself), so a correct sampler passes and
// a wrong table or tail does not.

std::vector<float> normal_samples(std::uint64_t seed, std::size_t n,
                                  float mean = 0.0f, float stddev = 1.0f) {
  Rng rng(seed);
  std::vector<float> out(n);
  rng.fill_normal(out.data(), n, mean, stddev);
  return out;
}

TEST(RngFillNormal, MomentsAndCdfMatchStandardNormal) {
  const std::size_t n = std::size_t{1} << 22;
  const auto xs = normal_samples(17, n);
  double m1 = 0.0;
  for (float x : xs) m1 += x;
  m1 /= static_cast<double>(n);
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (float x : xs) {
    const double c = x - m1;
    m2 += c * c;
    m3 += c * c * c;
    m4 += c * c * c * c;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  m4 /= static_cast<double>(n);
  EXPECT_NEAR(m1, 0.0, 2.5e-3);
  EXPECT_NEAR(m2, 1.0, 3.5e-3);
  EXPECT_NEAR(m3 / std::pow(m2, 1.5), 0.0, 6e-3);  // skewness
  EXPECT_NEAR(m4 / (m2 * m2), 3.0, 1.2e-2);        // kurtosis
  // P(X < t) against Phi(t) = erfc(-t / sqrt 2) / 2, inside and across
  // the layers.
  for (double t : {-2.5, -1.5, -0.5, 0.0, 0.3, 1.0, 2.0, 3.0}) {
    std::size_t below = 0;
    for (float x : xs) below += x < t ? 1 : 0;
    const double phi = 0.5 * std::erfc(-t / std::sqrt(2.0));
    EXPECT_NEAR(static_cast<double>(below) / static_cast<double>(n), phi,
                1.25e-3)
        << "t = " << t;
  }
}

TEST(RngFillNormal, TailStripMassMatchesTwoPhiOfMinusR) {
  // Samples past |x| = r come only from the base strip's tail branch.
  const double r = 3.442619855899;
  const std::size_t n = std::size_t{1} << 22;
  const auto xs = normal_samples(29, n);
  std::size_t beyond = 0, positive = 0;
  for (float x : xs) {
    if (std::fabs(x) > r) {
      ++beyond;
      positive += x > 0.0f ? 1 : 0;
    }
  }
  const double want = std::erfc(r / std::sqrt(2.0)) * static_cast<double>(n);
  EXPECT_NEAR(static_cast<double>(beyond), want, 0.1 * want);  // ~2400
  // Both tails are drawn.
  EXPECT_NEAR(static_cast<double>(positive),
              0.5 * static_cast<double>(beyond), 0.05 * want);
}

TEST(RngFillNormal, MeanAndStddevScaleTheOutput) {
  const std::size_t n = 4096;
  const auto unit = normal_samples(3, n);
  const auto scaled = normal_samples(3, n, 2.5f, 3.0f);
  const auto flat = normal_samples(3, n, -1.25f, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    const double want = 2.5 + 3.0 * static_cast<double>(unit[i]);
    EXPECT_NEAR(scaled[i], want, 1e-6 * (1.0 + std::fabs(want))) << i;
    EXPECT_EQ(flat[i], -1.25f) << i;
  }
  Rng rng(3);
  float x = 0.0f;
  EXPECT_THROW(rng.fill_normal(&x, 1, 0.0f, -1.0f), CheckError);
}

TEST(RngFillNormal, SplitFillsAndCopiesReplayTheStream) {
  // Stateless between calls: any split of one fill writes the same bits,
  // and an Rng copied mid-stream (the Trainer's retry and checkpoint
  // snapshot) replays the rest.
  const std::size_t total = 10007;
  const auto whole = normal_samples(41, total);
  for (std::size_t n1 : {std::size_t{0}, std::size_t{1}, std::size_t{777},
                         std::size_t{5000}, total}) {
    Rng rng(41);
    std::vector<float> split(total);
    rng.fill_normal(split.data(), n1, 0.0f, 1.0f);
    rng.fill_normal(split.data() + n1, total - n1, 0.0f, 1.0f);
    EXPECT_EQ(split, whole) << "split at " << n1;
  }
  Rng rng(41);
  std::vector<float> head(777);
  rng.fill_normal(head.data(), head.size(), 0.0f, 1.0f);
  Rng copy = rng;
  std::vector<float> a(total - 777), b(total - 777);
  rng.fill_normal(a.data(), a.size(), 0.0f, 1.0f);
  copy.fill_normal(b.data(), b.size(), 0.0f, 1.0f);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), whole.begin() + 777));
}

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(
      1000,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1);
        }
      },
      /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  auto future = pool.submit([] {});
  EXPECT_NO_THROW(future.get());
}

}  // namespace
}  // namespace mpipe
