/// Fig 13 — overhead of the memory-reusing strategies S1–S4 relative to
/// PipeMoE (no reuse), across cluster sizes N ∈ {8, 16, 32, 64} and
/// B ∈ {4k, 8k, 16k}, plus the layer's adaptive choice. Paper: S1/S2 win
/// on small N, S3/S4 on large N (communication-bound), batch size barely
/// matters, and no single strategy wins everywhere. Also reports the
/// selector's regret vs the oracle (an ablation beyond the paper) and
/// exits 1 when it exceeds 2% at any grid point.

#include "bench_common.h"

int main() {
  using namespace mpipe;
  using namespace mpipe::bench;

  const auto spec = runtime::bert_l();
  TablePrinter table({"(N,B)", "S1%", "S2%", "S3%", "S4%", "MPipeMoE%",
                      "picked", "oracle"});
  CsvWriter csv("fig13_strategy_overhead.csv",
                {"gpus", "tokens", "s1", "s2", "s3", "s4", "adaptive",
                 "picked", "oracle"});

  int regret_points = 0, total_points = 0;
  for (int gpus : {8, 16, 32, 64}) {
    for (std::int64_t b : {4096, 8192, 16384}) {
      sim::Cluster base_cluster = pod_of(gpus);
      core::MoELayerOptions po = pipemoe_options(spec, 4, false);
      core::MoELayer pipe(base_cluster, po);
      const double t_base = pipe.step_timing(b).step_seconds();

      std::vector<double> overhead;
      for (auto s : {core::ReuseStrategy::kS1, core::ReuseStrategy::kS2,
                     core::ReuseStrategy::kS3, core::ReuseStrategy::kS4}) {
        sim::Cluster cluster = pod_of(gpus);
        core::MoELayerOptions o = pipemoe_options(spec, 4, true);
        o.strategy = s;
        core::MoELayer layer(cluster, o);
        overhead.push_back(
            (layer.step_timing(b).step_seconds() - t_base) / t_base);
      }
      sim::Cluster cluster = pod_of(gpus);
      core::MoELayerOptions o = pipemoe_options(spec, 4, true);
      core::MoELayer adaptive(cluster, o);
      const auto rep = adaptive.step_timing(b);
      const double adaptive_overhead =
          (rep.step_seconds() - t_base) / t_base;

      const double oracle =
          *std::min_element(overhead.begin(), overhead.end());
      const int oracle_index = static_cast<int>(
          std::min_element(overhead.begin(), overhead.end()) -
          overhead.begin());
      ++total_points;
      if (adaptive_overhead > oracle + 0.02) ++regret_points;

      const std::string key = "(" + std::to_string(gpus) + "," +
                              std::to_string(b / 1024) + "k)";
      table.add_row({key, fmt(100 * overhead[0], 1),
                     fmt(100 * overhead[1], 1), fmt(100 * overhead[2], 1),
                     fmt(100 * overhead[3], 1),
                     fmt(100 * adaptive_overhead, 1),
                     core::to_string(rep.strategy),
                     "S" + std::to_string(oracle_index + 1)});
      csv.row({std::to_string(gpus), std::to_string(b),
               CsvWriter::num(overhead[0]), CsvWriter::num(overhead[1]),
               CsvWriter::num(overhead[2]), CsvWriter::num(overhead[3]),
               CsvWriter::num(adaptive_overhead),
               core::to_string(rep.strategy),
               "S" + std::to_string(oracle_index + 1)});
    }
  }
  std::printf("Fig 13: memory-reuse overhead vs PipeMoE(n=4), BERT-L\n\n");
  table.print();
  std::printf("\nselector regret >2%% at %d/%d grid points\n",
              regret_points, total_points);
  return regret_points > 0 ? 1 : 0;
}
