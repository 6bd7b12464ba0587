// Tracks the throughput of the simulation core, the hot path under every
// figure/ablation bench: (a) raw EventQueue events/sec against the frozen
// seed queue in bench/common.hpp (std::priority_queue +
// std::unordered_map<seq, std::function> with lazy cancellation), and
// (b) end-to-end wall time of the paper's Section 5.2 testbed sweep,
// serial vs. the NIMCAST_THREADS worker pool, with a bit-identity check
// between the two, plus (c) the perf gate's 1024-host deep-queue
// broadcast point. Every timed quantity is the median of
// bench::kGateTrials trials, recorded with its quartiles. Emits
// BENCH_sim_core.json (see docs/perf.md) so the perf trajectory is
// recorded run over run; bench_scale --gate-baseline reads it back.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/common.hpp"
#include "harness/parallel.hpp"
#include "sim/event_queue.hpp"

using namespace nimcast;

namespace {

bool identical(const sim::Summary& a, const sim::Summary& b) {
  return a.count() == b.count() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() &&
         a.max() == b.max();
}

bool identical(const harness::MeasurePoint& a,
               const harness::MeasurePoint& b) {
  return identical(a.latency_us, b.latency_us) &&
         identical(a.block_us, b.block_us) &&
         identical(a.peak_buffer, b.peak_buffer) &&
         identical(a.buffer_integral, b.buffer_integral) &&
         identical(a.events, b.events);
}

}  // namespace

int main() {
  std::printf("=== simulation-core throughput ===\n\n");
  const bool quick = std::getenv("NIMCAST_QUICK") != nullptr;
  const std::uint64_t churn_events = quick ? 200'000 : 2'000'000;
  const int churn_depth = 512;

  // Warm-up (which doubles as the equivalence check), then kGateTrials
  // measured runs of each queue.
  bench::expect_shape(
      bench::churn_new(churn_events / 10, churn_depth).checksum ==
          bench::churn_legacy(churn_events / 10, churn_depth).checksum,
      "churn workloads diverged (checksum mismatch)");
  const bench::TrialStats fast = bench::run_trials([&] {
    return bench::churn_new(churn_events, churn_depth).events_per_sec;
  });
  const bench::TrialStats slow = bench::run_trials([&] {
    return bench::churn_legacy(churn_events, churn_depth).events_per_sec;
  });
  const double core_speedup = fast.median / slow.median;
  std::printf("event core     : %.3g events/sec (per-instant buckets)\n",
              fast.median);
  std::printf("seed baseline  : %.3g events/sec (priority_queue + "
              "unordered_map)\n",
              slow.median);
  std::printf("single-thread speedup: %.2fx (medians of %d trials)\n\n",
              core_speedup, bench::kGateTrials);
  bench::expect_shape(core_speedup >= 1.3,
                      "event core >= 1.3x seed queue events/sec");

  const int threads = harness::configured_threads();
  const harness::IrregularTestbed bed{bench::paper_testbed_config()};

  const bench::SweepResult serial_ref = bench::run_sweep(bed, 1);
  const bench::SweepResult parallel_ref = bench::run_sweep(bed, threads);
  bool all_identical = true;
  for (std::size_t i = 0; i < serial_ref.points.size(); ++i) {
    all_identical = all_identical &&
                    identical(serial_ref.points[i], parallel_ref.points[i]);
  }
  bench::expect_shape(all_identical,
                      "parallel sweep bit-identical to serial sweep");
  const bench::TrialStats serial =
      bench::run_trials([&] { return bench::run_sweep(bed, 1).wall_ms; });
  const bench::TrialStats parallel = bench::run_trials(
      [&] { return bench::run_sweep(bed, threads).wall_ms; });
  const double sweep_speedup = serial.median / parallel.median;
  std::printf("paper-rig sweep: serial %.1f ms, %d threads %.1f ms "
              "(%.2fx)\n",
              serial.median, threads, parallel.median, sweep_speedup);
  // The >= 3x gate only means something when the threads map onto real
  // cores and the sweep is long enough to dominate timing noise; quick
  // mode (~10 ms sweeps) and oversubscribed single-core boxes would
  // false-fail on scheduler jitter, not on a perf regression.
  const unsigned hw = std::thread::hardware_concurrency();
  if (!quick && threads >= 4 && hw >= 4) {
    bench::expect_shape(sweep_speedup >= 3.0,
                        "parallel sweep >= 3x serial wall time with >= 4 "
                        "threads");
  } else {
    std::printf("(speedup shape check skipped: threads=%d, hardware=%u, "
                "quick=%d)\n",
                threads, hw, quick ? 1 : 0);
  }

  const bench::DeepQueuePoint deep;
  (void)deep.run_ms();  // warm-up: materializes the routes it touches
  const bench::TrialStats bcast =
      bench::run_trials([&] { return deep.run_ms(); });
  std::printf("1024-host broadcast: %.1f ms (quartiles %.1f - %.1f)\n",
              bcast.median, bcast.q1, bcast.q3);

  const char* out_path = std::getenv("NIMCAST_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_sim_core.json";
  if (FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"sim_core_throughput\",\n"
        "  \"config\": {\n"
        "    \"quick\": %s,\n"
        "    \"churn_events\": %" PRIu64 ",\n"
        "    \"churn_depth\": %d,\n"
        "    \"sweep\": \"irregular 64-host rig, n in {16,32,64}, m in "
        "{1,4}, optimal tree, smart-fpfs\",\n"
        "    \"deep_queue\": \"fat_tree 1024 hosts, 4 full broadcasts, "
        "m=16, optimal tree, smart-fpfs, serial\"\n"
        "  },\n"
        "  \"trials\": %d,\n"
        "  \"events_per_sec\": %.1f,\n"
        "  \"events_per_sec_seed_baseline\": %.1f,\n"
        "  \"event_core_speedup\": %.3f,\n"
        "  \"wall_ms\": %.2f,\n"
        "  \"wall_ms_serial\": %.2f,\n"
        "  \"wall_ms_serial_q1\": %.2f,\n"
        "  \"wall_ms_serial_q3\": %.2f,\n"
        "  \"bcast1024_wall_ms\": %.2f,\n"
        "  \"bcast1024_wall_ms_q1\": %.2f,\n"
        "  \"bcast1024_wall_ms_q3\": %.2f,\n"
        "  \"sweep_speedup\": %.3f,\n"
        "  \"parallel_bit_identical\": %s,\n"
        "  \"threads\": %d,\n"
        "  \"git_rev\": \"%s\"\n"
        "}\n",
        quick ? "true" : "false", churn_events, churn_depth,
        bench::kGateTrials, fast.median, slow.median, core_speedup,
        parallel.median, serial.median, serial.q1, serial.q3, bcast.median,
        bcast.q1, bcast.q3, sweep_speedup, all_identical ? "true" : "false",
        threads, bench::git_rev().c_str());
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    bench::expect_shape(false, std::string("could not write ") + out_path);
  }

  return bench::finish("bench_sim_core_throughput");
}
