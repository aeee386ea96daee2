#pragma once
/// \file rng.h
/// Deterministic random number generation. Every stochastic component owns
/// its own Rng seeded explicitly, so whole-cluster runs replay bit-exactly.
///
/// Stream contract: an Rng's only state is its engine, so a value copy
/// replays the stream from the point it was taken (the Trainer's step
/// retry and checkpoint/restore rely on this). No sampler keeps a cached
/// draw between calls.

#include <cstddef>
#include <cstdint>
#include <random>

namespace mpipe {

/// Thin wrapper over a 64-bit Mersenne twister with convenience samplers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal.
  double normal();
  /// Normal with given mean/stddev.
  double normal(double mean, double stddev);

  /// Fills out[0, n) with N(mean, stddev^2) floats: the bulk sampler for
  /// synthetic token batches, ~5x cheaper per element than normal(). A
  /// 128-layer Marsaglia–Tsang ziggurat (tables built once per process)
  /// drawing one 64-bit engine output per sample in the common case and
  /// Marsaglia's exponential method past the tail strip at |x| = 3.4426.
  /// Stateless between calls, so filling n1 and then n2 elements writes
  /// the same floats as one fill of n1 + n2. Its stream differs from
  /// normal()'s.
  void fill_normal(float* out, std::size_t n, float mean, float stddev);

  /// Zipf-distributed index in [0, n) with skew parameter s >= 0
  /// (s == 0 degenerates to uniform). Used for skewed expert routing.
  std::size_t zipf(std::size_t n, double s);

  /// Derives an independent child generator (seed mixing), for spawning
  /// per-device or per-layer streams from one master seed.
  Rng fork();

  std::mt19937_64& engine() { return engine_; }
  /// Const access for state serialization (operator<< on the engine).
  const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mpipe
