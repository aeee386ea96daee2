#pragma once
/// \file stats.h
/// Small numeric summaries used by benches and the adaptive search
/// (trial timing uses trimmed means to reject warm-up noise).

#include <cstddef>
#include <vector>

namespace mpipe {

/// Streaming accumulator: count / mean / variance (Welford) / min / max.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// p in [0,1]; linear interpolation between order statistics.
double percentile(std::vector<double> values, double p);

/// Mean after dropping `trim` smallest and `trim` largest samples.
double trimmed_mean(std::vector<double> values, std::size_t trim);

}  // namespace mpipe
