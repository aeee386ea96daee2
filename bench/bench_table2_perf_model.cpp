/// Table II validation — the Eq-10 performance model's predicted per-step
/// cost for each strategy vs the simulated schedule, and whether the
/// model's ranking matches the simulator's ranking.

#include "bench_common.h"
#include "core/strategy_selector.h"

int main() {
  using namespace mpipe;
  using namespace mpipe::bench;

  const auto spec = runtime::bert_l();
  TablePrinter table({"N", "B", "strategy", "Qfw", "Qbw", "predicted(ms)",
                      "simulated(ms)"});
  CsvWriter csv("table2_perf_model.csv",
                {"gpus", "tokens", "strategy", "predicted_ms",
                 "simulated_ms"});

  int rank_matches = 0, totals = 0;
  for (int gpus : {8, 64}) {
    for (std::int64_t b : {4096, 16384}) {
      sim::Cluster cluster = pod_of(gpus);
      const int n = 4;
      const std::int64_t micro = b / n;
      core::StrategySelector selector(
          core::StrategySelector::measure(cluster, micro));

      std::vector<std::pair<double, double>> costs;  // (pred, sim)
      for (auto s : {core::ReuseStrategy::kS1, core::ReuseStrategy::kS2,
                     core::ReuseStrategy::kS3, core::ReuseStrategy::kS4}) {
        const double predicted =
            selector.model().step_cost(s, micro, spec.d_model,
                                       spec.d_hidden) *
            n;  // n micro-batches per step
        sim::Cluster c2 = pod_of(gpus);
        core::MoELayerOptions o = pipemoe_options(spec, n, true);
        o.strategy = s;
        core::MoELayer layer(c2, o);
        const double simulated = layer.step_timing(b).step_seconds();
        costs.emplace_back(predicted, simulated);
        const auto w = core::workload_of(
            s, static_cast<int>(spec.d_hidden / spec.d_model));
        auto qstr = [](const std::array<int, 3>& q) {
          return "[" + std::to_string(q[0]) + "," + std::to_string(q[1]) +
                 "," + std::to_string(q[2]) + "]";
        };
        table.add_row({std::to_string(gpus), std::to_string(b),
                       core::to_string(s), qstr(w.forward),
                       qstr(w.backward), fmt(to_ms(predicted), 2),
                       fmt(to_ms(simulated), 2)});
        csv.row({std::to_string(gpus), std::to_string(b),
                 core::to_string(s), CsvWriter::num(to_ms(predicted)),
                 CsvWriter::num(to_ms(simulated))});
      }
      // Does the model's argmin match the simulator's argmin?
      int best_pred = 0, best_sim = 0;
      for (int i = 1; i < 4; ++i) {
        if (costs[static_cast<std::size_t>(i)].first <
            costs[static_cast<std::size_t>(best_pred)].first) {
          best_pred = i;
        }
        if (costs[static_cast<std::size_t>(i)].second <
            costs[static_cast<std::size_t>(best_sim)].second) {
          best_sim = i;
        }
      }
      ++totals;
      if (best_pred == best_sim) ++rank_matches;
    }
  }
  std::printf("Table II: Eq-10 predictions vs simulated schedules "
              "(BERT-L, n=4)\n\n");
  table.print();
  std::printf("\nmodel picked the simulator's best strategy at %d/%d grid "
              "points\n", rank_matches, totals);
  return 0;
}
