#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace mpipe {

Rng::Rng(std::uint64_t seed) : engine_(seed) {}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  MPIPE_EXPECTS(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  MPIPE_EXPECTS(n > 0);
  return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
}

double Rng::normal() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::normal(double mean, double stddev) {
  MPIPE_EXPECTS(stddev >= 0.0);
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

namespace {

// Marsaglia & Tsang, "The Ziggurat Method for Generating Random Variables"
// (JSS 2000): 128 layers of equal area kZigV under f(x) = exp(-x^2 / 2).
// Layer i > 0 spans x in [0, x[i]] between heights f[i] and f[i + 1]; layer
// 0 is the rectangle [0, r] x [0, f(r)] plus the tail past r, drawn as a
// rectangle of pseudo-width x[0] = v / f(r).
constexpr int kZigLayers = 128;
constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

double zig_pdf(double x) { return std::exp(-0.5 * x * x); }

struct ZigguratTables {
  double x[kZigLayers + 1];
  double f[kZigLayers + 1];

  ZigguratTables() {
    x[0] = kZigV / zig_pdf(kZigR);
    x[1] = kZigR;
    for (int i = 1; i < kZigLayers - 1; ++i) {
      x[i + 1] = std::sqrt(-2.0 * std::log(kZigV / x[i] + zig_pdf(x[i])));
    }
    x[kZigLayers] = 0.0;
    for (int i = 0; i <= kZigLayers; ++i) f[i] = zig_pdf(x[i]);
  }
};

const ZigguratTables& ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

/// Uniform in [0, 1) from the top 53 bits of one engine output.
double unit_uniform(std::mt19937_64& engine) {
  return static_cast<double>(engine() >> 11) * 0x1.0p-53;
}

/// One N(0, 1) sample.
double ziggurat_normal(std::mt19937_64& engine, const ZigguratTables& z) {
  for (;;) {
    // Low 7 bits pick the layer; the top 53 give u in [-1, 1).
    const std::uint64_t bits = engine();
    const auto i = static_cast<int>(bits & (kZigLayers - 1));
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    const double x = u * z.x[i];
    if (std::fabs(x) < z.x[i + 1]) return x;  // inside the layer's core
    if (i == 0) {
      // Tail past r (Marsaglia 1964), with u's sign.
      double a = 0.0;
      double b = 0.0;
      do {
        a = -std::log(1.0 - unit_uniform(engine)) / kZigR;
        b = -std::log(1.0 - unit_uniform(engine));
      } while (b + b < a * a);
      return u < 0.0 ? -(kZigR + a) : kZigR + a;
    }
    // Wedge between the core and the curve.
    if (z.f[i] + (z.f[i + 1] - z.f[i]) * unit_uniform(engine) < zig_pdf(x)) {
      return x;
    }
  }
}

}  // namespace

void Rng::fill_normal(float* out, std::size_t n, float mean, float stddev) {
  MPIPE_EXPECTS(stddev >= 0.0f);
  MPIPE_EXPECTS(out != nullptr || n == 0, "null output");
  const ZigguratTables& z = ziggurat();
  const double m = mean;
  const double s = stddev;
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = static_cast<float>(m + s * ziggurat_normal(engine_, z));
  }
}

std::size_t Rng::zipf(std::size_t n, double s) {
  MPIPE_EXPECTS(n > 0);
  MPIPE_EXPECTS(s >= 0.0);
  if (s == 0.0) return static_cast<std::size_t>(uniform_index(n));
  // Inverse-CDF over the finite harmonic weights. n is the expert count
  // (tens), so the linear scan is cheap and exact.
  double total = 0.0;
  for (std::size_t k = 1; k <= n; ++k) total += 1.0 / std::pow(double(k), s);
  double r = uniform(0.0, total);
  double acc = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(double(k), s);
    if (r < acc) return k - 1;
  }
  return n - 1;
}

Rng Rng::fork() {
  // splitmix-style mixing keeps children decorrelated from the parent.
  std::uint64_t z = engine_();
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return Rng(z ^ (z >> 31));
}

}  // namespace mpipe
