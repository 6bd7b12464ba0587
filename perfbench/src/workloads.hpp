#pragma once

// The four benchmark workloads. Each one builds its fabrics and inputs
// from a seed (set-up), then exposes a fixed sequence of calls (one pass).
// A call is one engine invocation plus the tree building it needs; every
// pass over the same set-up yields the same simulated outputs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// FNV-1a over 64-bit words: the sim_digest of a call or a pass.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 64; b += 8) {
      h_ ^= (word >> b) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add_i(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Simulated outputs and layer counters of one pass, folded call by call.
/// Everything here is a function of the seed alone.
struct SimTotals {
  /// Per op, pass order: arrival to last destination host completion.
  std::vector<double> op_latency_us;
  std::int64_t ops = 0;
  std::int64_t ops_complete = 0;
  /// Delivered 8-byte payload flits, and the simulated time (µs) they
  /// were delivered over, summed across calls: their ratio is
  /// sim_flits_per_us.
  double delivered_flits = 0.0;
  double delivery_span_us = 0.0;
  std::int64_t events = 0;
  std::int64_t packets_delivered = 0;
  double block_us = 0.0;
  std::int64_t repairs = 0;
  std::int64_t replans = 0;
  std::int64_t packets_resent = 0;
  std::int64_t telemetry_snapshots = 0;
  std::int64_t ticks = 0;
  std::int64_t deferral_ticks = 0;
  /// Sums over multicast ops of the per-op NI buffer peak and the largest
  /// per-NI buffer integral, and how many ops contributed.
  double peak_buffer_sum = 0.0;
  double buffer_integral_sum = 0.0;
  std::int64_t buffer_ops = 0;
  /// Correctness failures, one line each.
  std::vector<std::string> errors;
};

/// What the timing loop needs from one call.
struct CallResult {
  std::int64_t ops = 0;
  std::int64_t ops_complete = 0;
  std::int64_t events = 0;
  std::uint64_t digest = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the fabrics and generates every input from `seed`, dropping
  /// any earlier set-up first.
  virtual void setup(std::uint64_t seed, Tracer& tracer) = 0;

  /// Calls in one pass.
  [[nodiscard]] virtual std::size_t calls() const = 0;

  /// Runs call `i`. Span op ids start at `op_base`. When `totals` is
  /// non-null, the call's simulated outputs are folded into it and
  /// checked for correctness.
  virtual CallResult run_call(std::size_t i, std::int64_t op_base,
                              Tracer& tracer, SimTotals* totals) = 0;

  /// Route-table heap footprint summed over fabrics, after the runs.
  [[nodiscard]] virtual std::size_t route_bytes() const = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
