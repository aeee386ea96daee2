// Algorithm 1: the RangeSet semantics and the GranularitySearcher's
// cache / range / trial behaviour, including monotonicity enforcement —
// and the layer's one (n, strategy) ranking built on it.

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/granularity_search.h"
#include "core/moe_layer.h"
#include "runtime/model_zoo.h"
#include "tensor/random_init.h"

namespace mpipe::core {
namespace {

using mpipe::CheckError;

TEST(RangeSet, FindOnEmptyReturnsNothing) {
  RangeSet s;
  EXPECT_FALSE(s.find(100).has_value());
}

TEST(RangeSet, PointInsertAndLookup) {
  RangeSet s;
  s.record(100, 2);
  EXPECT_EQ(s.find(100).value(), 2);
  EXPECT_FALSE(s.find(99).has_value());
  EXPECT_FALSE(s.find(101).has_value());
}

TEST(RangeSet, ExtensionMergesBatchSizes) {
  RangeSet s;
  s.record(100, 2);
  s.record(300, 2);
  EXPECT_EQ(s.find(200).value(), 2);  // interior of the widened range
  const auto range = s.range_of(2).value();
  EXPECT_EQ(range.lower, 100);
  EXPECT_EQ(range.upper, 300);
}

TEST(RangeSet, DisjointRangesForDifferentN) {
  RangeSet s;
  s.record(100, 2);
  s.record(1000, 4);
  s.record(5000, 8);
  EXPECT_EQ(s.find(100).value(), 2);
  EXPECT_EQ(s.find(1000).value(), 4);
  EXPECT_EQ(s.find(5000).value(), 8);
  EXPECT_FALSE(s.find(400).has_value());
  EXPECT_EQ(s.size(), 3u);
}

TEST(RangeSet, RecordInsideExistingRangeMustAgree) {
  RangeSet s;
  s.record(100, 2);
  s.record(300, 2);
  EXPECT_NO_THROW(s.record(200, 2));
  EXPECT_THROW(s.record(200, 4), CheckError);
}

TEST(RangeSet, MonotonicityViolationDetected) {
  RangeSet s;
  s.record(100, 2);
  s.record(500, 4);
  // Extending n=2 to 600 would swallow n=4's range.
  EXPECT_THROW(s.record(600, 2), CheckError);
}

TEST(Searcher, FullSearchPicksArgmin) {
  // Trial cost: minimised at n = 4 for every B.
  int trials = 0;
  GranularitySearcher searcher({1, 2, 4, 8}, [&](std::int64_t, int n) {
    ++trials;
    return std::abs(n - 4) + 1.0;
  });
  EXPECT_EQ(searcher.configure(1000), 4);
  EXPECT_EQ(trials, 4);
  EXPECT_EQ(searcher.stats().full_searches, 1u);
}

TEST(Searcher, CacheHitOnRepeatedB) {
  int trials = 0;
  GranularitySearcher searcher({1, 2}, [&](std::int64_t, int) {
    ++trials;
    return 1.0;
  });
  searcher.configure(64);
  const int before = trials;
  searcher.configure(64);
  EXPECT_EQ(trials, before);
  EXPECT_EQ(searcher.stats().cache_hits, 1u);
}

TEST(Searcher, RangeHitAvoidsTrialsForInteriorB) {
  // Optimal n follows a step function of B (monotone).
  auto oracle = [](std::int64_t b) { return b < 1000 ? 1 : 2; };
  int trials = 0;
  GranularitySearcher searcher({1, 2}, [&](std::int64_t b, int n) {
    ++trials;
    return n == oracle(b) ? 1.0 : 2.0;
  });
  searcher.configure(100);
  searcher.configure(900);
  const int before = trials;
  EXPECT_EQ(searcher.configure(500), 1);  // inside [100, 900]
  EXPECT_EQ(trials, before);
  EXPECT_EQ(searcher.stats().range_hits, 1u);
}

TEST(Searcher, SkipsPartitionsLargerThanBatch) {
  std::vector<int> tried;
  GranularitySearcher searcher({1, 2, 8}, [&](std::int64_t, int n) {
    tried.push_back(n);
    return static_cast<double>(n);
  });
  searcher.configure(4);
  EXPECT_EQ(tried, (std::vector<int>{1, 2}));  // n=8 > B=4 skipped
}

TEST(Searcher, RejectsDegenerateInputs) {
  EXPECT_THROW(
      GranularitySearcher({}, [](std::int64_t, int) { return 1.0; }),
      CheckError);
  EXPECT_THROW(GranularitySearcher({0}, [](std::int64_t, int) {
                 return 1.0;
               }),
               CheckError);
  GranularitySearcher ok({1}, [](std::int64_t, int) { return 1.0; });
  EXPECT_THROW(ok.configure(0), CheckError);
}

TEST(Searcher, MonotoneTraceBuildsCompactRangeSet) {
  auto oracle = [](std::int64_t b) {
    if (b < 8000) return 2;
    if (b < 22000) return 4;
    return 8;
  };
  GranularitySearcher searcher({1, 2, 4, 8},
                               [&](std::int64_t b, int n) {
                                 return n == oracle(b) ? 1.0 : 2.0;
                               });
  for (std::int64_t b = 4000; b <= 31000; b += 1000) {
    EXPECT_EQ(searcher.configure(b), oracle(b)) << "B=" << b;
  }
  EXPECT_EQ(searcher.ranges().size(), 3u);
  // Re-sweeping costs zero trials (all cache hits).
  const auto trials_before = searcher.stats().trials;
  for (std::int64_t b = 4000; b <= 31000; b += 1000) {
    searcher.configure(b);
  }
  EXPECT_EQ(searcher.stats().trials, trials_before);
}

TEST(Searcher, RowRangeMatchesChunkExtremes) {
  // Chunks are floor(B/n)/floor(B/n)+1 (Dispatcher::chunk_sizes): the
  // smallest probed panel is the floor chunk at the largest n, the
  // largest the ceil chunk at the smallest n.
  const auto r = GranularitySearcher::row_range(10, 10, {4});
  EXPECT_EQ(r.first, 2);   // chunks {3, 3, 2, 2}: floor(10/4)
  EXPECT_EQ(r.second, 3);  // ceil(10/4)
  const auto wide = GranularitySearcher::row_range(64, 1024, {1, 2, 4, 8});
  EXPECT_EQ(wide.first, 8);      // floor(64/8)
  EXPECT_EQ(wide.second, 1024);  // ceil(1024/1)
  // Degenerate: batch smaller than the largest n still probes >= 1 row.
  EXPECT_EQ(GranularitySearcher::row_range(3, 3, {8}).first, 1);
  EXPECT_THROW(GranularitySearcher::row_range(0, 1, {2}), CheckError);
  EXPECT_THROW(GranularitySearcher::row_range(1, 2, {}), CheckError);
}

TEST(Searcher, ExpertPanelRangeDividesLowerBoundOnly) {
  // The schedule feeds gemm_efficiency per-expert panels (received rows
  // split across local experts); the upper bound keeps whole-micro-batch
  // headroom for routing skew.
  const auto r = GranularitySearcher::expert_panel_range(1024, 1024,
                                                         {1, 2, 4, 8}, 2);
  EXPECT_EQ(r.first, 64);     // floor(1024/8) / 2
  EXPECT_EQ(r.second, 1024);  // ceil(1024/1), undivided
  // Clamped at one row even when experts outnumber the smallest chunk.
  EXPECT_EQ(GranularitySearcher::expert_panel_range(8, 8, {8}, 4).first, 1);
  EXPECT_THROW(GranularitySearcher::expert_panel_range(8, 8, {8}, 0),
               CheckError);
}

TEST(Searcher, AllToAllPayloadRangeTracksRowRange) {
  // d_model = 256 -> 1 KiB rows; balanced exchange of the smallest floor
  // chunk below, full skew of the largest chunk above.
  const auto p = GranularitySearcher::alltoall_payload_range(
      1024, 16384, {1, 2, 4, 8}, 256, 8);
  EXPECT_EQ(p.first, 128u * 1024 * 7 / 8);  // floor(1024/8) rows, (P-1)/P
  EXPECT_EQ(p.second, 16384u * 1024);       // every row leaves the device
  EXPECT_THROW(GranularitySearcher::alltoall_payload_range(8, 8, {2}, 256, 1),
               CheckError);
  EXPECT_THROW(GranularitySearcher::alltoall_payload_range(8, 8, {2}, 0, 4),
               CheckError);
}

// ---- the layer's one (n, strategy) ranking --------------------------------

constexpr ReuseStrategy kReuseStrategies[] = {
    ReuseStrategy::kS1, ReuseStrategy::kS2, ReuseStrategy::kS3,
    ReuseStrategy::kS4};

/// perfbench's layer: 8 experts over 4 devices, strategy unset.
MoELayerOptions ranked_options(std::int64_t d_model, std::int64_t d_hidden,
                               DType dtype, int num_partitions) {
  MoELayerOptions o;
  o.d_model = d_model;
  o.d_hidden = d_hidden;
  o.num_experts = 8;
  o.compute_dtype = dtype;
  o.num_partitions = num_partitions;
  o.candidate_partitions = {1, 2, 4, 8};
  o.mode = ExecutionMode::kTimingOnly;
  return o;
}

TEST(LayerRanking, UnsetStrategyHasZeroRegretOnItsOwnModel) {
  // The chosen step's modeled time is the minimum over every layer that
  // pins (n, strategy) to a candidate n and S1–S4 — the same probes, so
  // equality is exact. (128, 512) at B = 512, n = 4 is train_pipelined.
  const std::pair<std::int64_t, std::int64_t> shapes[] = {
      {128, 512}, {512, 2048}, {1024, 4096}};
  const std::int64_t b = 512;
  for (const auto& [m, h] : shapes) {
    for (DType dtype : {DType::kF32, DType::kBF16, DType::kI8}) {
      for (int fixed_n : {2, 4, 0}) {
        for (double skew : {0.0, 0.4}) {
          std::ostringstream where;
          where << "M=" << m << " H=" << h << " " << to_string(dtype)
                << " n=" << (fixed_n > 0 ? std::to_string(fixed_n)
                                         : std::string("adaptive"))
                << " skew=" << skew;
          sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
          const MoELayerOptions o = ranked_options(m, h, dtype, fixed_n);
          MoELayer adaptive(cluster, o);
          const double chosen = adaptive.step_timing(b, skew).step_seconds();

          double best = -1.0;
          for (int n : partition_candidates(o)) {
            for (ReuseStrategy s : kReuseStrategies) {
              MoELayerOptions pinned = o;
              pinned.num_partitions = n;
              pinned.strategy = s;
              MoELayer layer(cluster, pinned);
              const double t = layer.step_timing(b, skew).step_seconds();
              if (best < 0.0 || t < best) best = t;
            }
          }
          EXPECT_EQ(chosen, best) << where.str();
        }
      }
    }
  }
}

TEST(LayerRanking, TrainPipelinedShapePicksS3InBothStepDrivers) {
  // Eq-10 picks S4 here; the probes rank S3 cheaper, and forward() reads
  // the same ranking as step_timing().
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  MoELayerOptions o = ranked_options(128, 512, DType::kF32, 4);
  MoELayer timing(cluster, o);
  const StepReport r = timing.step_timing(512);
  EXPECT_EQ(r.n_partitions, 4);
  EXPECT_EQ(r.strategy, ReuseStrategy::kS3);

  o.mode = ExecutionMode::kFull;
  MoELayer full(cluster, o);
  Rng rng(7);
  std::vector<Tensor> inputs;
  for (int d = 0; d < full.num_devices(); ++d) {
    inputs.emplace_back(Shape{512, o.d_model});
    init_normal(inputs.back(), rng, 1.0f);
  }
  full.forward(inputs);
  EXPECT_EQ(full.last_report().n_partitions, 4);
  EXPECT_EQ(full.last_report().strategy, ReuseStrategy::kS3);
}

TEST(LayerRanking, SkewChangeReRanksInsteadOfReplayingStaleVerdicts) {
  // GPT-XL without reuse on 64 GPUs: a verdict ranked under balanced
  // routing (n = 2 at 4k) must not answer a skewed step (a fresh layer
  // picks n = 4 at skew 0.3).
  MoELayerOptions o = runtime::layer_options(runtime::gpt_xl());
  o.memory_reuse = false;
  o.mode = ExecutionMode::kTimingOnly;
  auto fresh_n = [&](std::int64_t b, double skew) {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(8, 8);
    MoELayer layer(cluster, o);
    return layer.step_timing(b, skew).n_partitions;
  };
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(8, 8);
  MoELayer layer(cluster, o);
  for (double skew : {0.3, 0.6, 0.9}) {
    for (std::int64_t b = 4096; b <= 28 * 1024; b += 4096) {
      layer.step_timing(b, 0.0);
      EXPECT_EQ(layer.step_timing(b, skew).n_partitions, fresh_n(b, skew))
          << "B=" << b << " skew=" << skew;
    }
  }
}

TEST(LayerRanking, ProbeCountsFollowTheSearcherStats) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  MoELayerOptions o = ranked_options(128, 512, DType::kF32, 0);
  o.candidate_partitions = {1, 2, 4};
  MoELayer layer(cluster, o);
  const SearchStats& stats = layer.searcher().stats();
  layer.step_timing(512);
  EXPECT_EQ(stats.full_searches, 1u);
  EXPECT_EQ(stats.trials, 3u);

  // A repeated B is an exact-cache hit: no trial.
  layer.step_timing(512);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.trials, 3u);

  // New correction factors force exactly one re-rank...
  sim::OpClassCorrections c;
  c.memcpy = 2.0;
  layer.set_corrections(c);
  layer.step_timing(512);
  layer.step_timing(512);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.full_searches, 2u);
  EXPECT_EQ(stats.trials, 6u);
  EXPECT_EQ(stats.cache_hits, 2u);

  // ...and so does a skew change.
  layer.step_timing(512, 0.4);
  layer.step_timing(512, 0.4);
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.full_searches, 3u);
  EXPECT_EQ(stats.trials, 9u);
  EXPECT_EQ(stats.cache_hits, 3u);
}

TEST(LayerRanking, LayerWithNothingToChooseRunsNoProbe) {
  MoELayerOptions pinned = ranked_options(128, 512, DType::kF32, 4);
  pinned.strategy = ReuseStrategy::kS2;
  MoELayerOptions serial = ranked_options(128, 512, DType::kF32, 0);
  serial.pipeline = false;
  for (const MoELayerOptions& o : {pinned, serial}) {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    MoELayer layer(cluster, o);
    layer.step_timing(512);
    layer.step_timing(256);
    EXPECT_EQ(layer.searcher().stats().trials, 0u);
    EXPECT_EQ(layer.searcher().stats().full_searches, 0u);
  }
}

}  // namespace
}  // namespace mpipe::core
