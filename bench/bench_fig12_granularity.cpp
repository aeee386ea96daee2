/// Fig 12 — pipeline-granularity sweep on GPT-XL: speedup over n=1 for
/// fixed n ∈ {2, 4, 8} and for the adaptive configuration, with B from 4k
/// to 31k. Paper: n=2 wins below ~8k, n=4 in 8k–22k, n=8 above 22k, and
/// the adaptive search tracks the winner everywhere. Also reports the
/// Algorithm-1 search statistics (an ablation beyond the paper). Exits 1
/// when the adaptive choice is >2% worse than the oracle at any point.

#include "bench_common.h"

int main() {
  using namespace mpipe;
  using namespace mpipe::bench;

  const auto spec = runtime::gpt_xl();
  TablePrinter table({"B(k)", "n=1", "n=2", "n=4", "n=8", "adaptive",
                      "chosen n"});
  CsvWriter csv("fig12_granularity.csv",
                {"tokens", "n1", "n2", "n4", "n8", "adaptive", "chosen_n"});

  // One adaptive layer across the sweep so the range set accumulates.
  sim::Cluster adaptive_cluster = paper_pod();
  core::MoELayerOptions ao = pipemoe_options(spec, 0, false);
  core::MoELayer adaptive(adaptive_cluster, ao);

  int mismatches = 0, points = 0;
  for (std::int64_t bk = 4; bk <= 31; ++bk) {
    const std::int64_t b = bk * 1024;
    std::vector<double> times;
    for (int n : {1, 2, 4, 8}) {
      sim::Cluster cluster = paper_pod();
      times.push_back(
          pipemoe_step(cluster, spec, b, n, false).step_seconds());
    }
    const auto rep = adaptive.step_timing(b);
    const double base = times[0];
    // Best fixed configuration for the oracle comparison.
    int best_index = 0;
    for (int i = 1; i < 4; ++i) {
      if (times[static_cast<std::size_t>(i)] <
          times[static_cast<std::size_t>(best_index)]) {
        best_index = i;
      }
    }
    const int best_n = 1 << best_index;
    ++points;
    if (rep.n_partitions != best_n &&
        rep.step_seconds() >
            times[static_cast<std::size_t>(best_index)] * 1.02) {
      ++mismatches;
    }
    table.add_row({std::to_string(bk), fmt(1.0), fmt(base / times[1]),
                   fmt(base / times[2]), fmt(base / times[3]),
                   fmt(base / rep.step_seconds()),
                   std::to_string(rep.n_partitions)});
    csv.row({std::to_string(b), CsvWriter::num(times[0]),
             CsvWriter::num(times[1]), CsvWriter::num(times[2]),
             CsvWriter::num(times[3]),
             CsvWriter::num(rep.step_seconds()),
             std::to_string(rep.n_partitions)});
  }
  std::printf("Fig 12: speedup over n=1, GPT-XL, 64 GPUs\n\n");
  table.print();
  const auto& stats = adaptive.searcher().stats();
  std::printf("\nAlgorithm-1 ablation: %zu full searches, %zu range hits, "
              "%zu cache hits, %zu trial measurements; adaptive worse than "
              "oracle (>2%%) at %d/%d points\n",
              stats.full_searches, stats.range_hits, stats.cache_hits,
              stats.trials, mismatches, points);
  std::printf("range set: %s\n", adaptive.searcher().ranges().to_string().c_str());
  return mismatches > 0 ? 1 : 0;
}
