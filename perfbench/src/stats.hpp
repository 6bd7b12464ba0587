#pragma once

// Percentile helpers. Percentiles use the library's sim::Samples
// (linear interpolation, p in [0, 100]); the tail rule is the benchmark's.

#include <array>
#include <cstddef>
#include <vector>

#include "sim/stats.hpp"

namespace perfbench {

/// Samples ranked strictly above the p-th percentile of `n` samples, by
/// the interpolation rank sim::Samples::percentile uses: p/100 * (n - 1).
[[nodiscard]] inline std::size_t samples_beyond(double p, std::size_t n) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(p / 100.0 *
                                             static_cast<double>(n - 1));
  return n - 1 - rank;
}

/// The highest percentile of this ladder with at least ten samples
/// beyond it; 50 when not even the median has.
[[nodiscard]] inline double tail_percentile(std::size_t n) {
  constexpr std::array<double, 8> kLadder = {99.9, 99.0, 98.0, 95.0,
                                             90.0, 80.0, 75.0, 50.0};
  for (const double p : kLadder) {
    if (samples_beyond(p, n) >= 10) return p;
  }
  return 50.0;
}

[[nodiscard]] inline nimcast::sim::Samples to_samples(
    const std::vector<double>& xs) {
  nimcast::sim::Samples s;
  for (const double x : xs) s.add(x);
  return s;
}

}  // namespace perfbench
