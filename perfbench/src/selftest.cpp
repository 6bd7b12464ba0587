// Self-test of the benchmark's percentile helpers, run by
// perfbench/test_perfbench.py. Percentiles take p in [0, 100]: a caller
// passing a fraction (0.99) would silently read the minimum.

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using perfbench::samples_beyond;
  using perfbench::tail_percentile;
  using perfbench::to_samples;

  // 1..101 shuffled: the p-th percentile is exactly 1 + p.
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(static_cast<double>((i * 37) % 101 + 1));
  const auto s = to_samples(xs);
  expect(near(s.percentile(0.0), 1.0), "p0 is the minimum");
  expect(near(s.percentile(50.0), 51.0), "p50 is the median");
  expect(near(s.percentile(99.0), 100.0), "p99 of 1..101 is 100");
  expect(near(s.percentile(100.0), 101.0), "p100 is the maximum");
  expect(near(s.percentile(0.99), 1.99), "p is a percentage, not a fraction");
  expect(near(to_samples({10.0, 20.0}).percentile(25.0), 12.5),
         "linear interpolation between ranks");
  bool threw = false;
  try {
    (void)s.percentile(101.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "p above 100 is rejected");

  expect(samples_beyond(99.0, 1000) == 10, "p99 of 1000 has 10 beyond");
  expect(samples_beyond(99.0, 901) == 9, "p99 of 901 has 9 beyond");
  expect(tail_percentile(1080) == 99.0, "1080 samples report p99");
  expect(tail_percentile(901) == 98.0, "901 samples fall back to p98");
  expect(tail_percentile(40) == 75.0, "40 samples report p75");
  expect(tail_percentile(10000) == 99.9, "10000 samples report p99.9");

  std::printf("%s\n", failures == 0 ? "selftest ok" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
