#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mpipe {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  MPIPE_EXPECTS(count_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  MPIPE_EXPECTS(count_ > 0);
  if (count_ == 1) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  MPIPE_EXPECTS(count_ > 0);
  return min_;
}

double RunningStats::max() const {
  MPIPE_EXPECTS(count_ > 0);
  return max_;
}

double percentile(std::vector<double> values, double p) {
  MPIPE_EXPECTS(!values.empty());
  MPIPE_EXPECTS(p >= 0.0 && p <= 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double pos = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double trimmed_mean(std::vector<double> values, std::size_t trim) {
  MPIPE_EXPECTS(values.size() > 2 * trim);
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (std::size_t i = trim; i < values.size() - trim; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

}  // namespace mpipe
