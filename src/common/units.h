#pragma once
/// \file units.h
/// Size and time unit helpers used across the simulator and benches.

#include <cstdint>

namespace mpipe {

inline constexpr std::uint64_t KiB = 1024ull;
inline constexpr std::uint64_t MiB = 1024ull * KiB;
inline constexpr std::uint64_t GiB = 1024ull * MiB;

/// Simulated time is kept in double seconds; helpers for readability.
inline constexpr double milliseconds(double ms) { return ms * 1e-3; }

inline constexpr double to_ms(double seconds) { return seconds * 1e3; }
inline constexpr double to_us(double seconds) { return seconds * 1e6; }

inline constexpr double mib(double bytes) {
  return bytes / static_cast<double>(MiB);
}

}  // namespace mpipe
