// nimcast_perfbench: runs one benchmark workload and prints its metrics.
//
//   nimcast_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--spans <path>]
//
// Untraced (--trace 0): one set-up, then a warm-up pass that yields the
// simulated metrics and the reference sim_digest, then passes repeat until
// --seconds have elapsed, with further set-ups spread between the calls
// (setup_s is their median). Host throughput is the pass's op count over
// the sum of per-call minimum host times.
//
// Traced (--trace 1): the same, with the timed body split in half — an
// untraced half and a traced half — so the tracing overhead is measured
// in the run that reports per-layer figures. Spans go to --spans.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics. The exit code is non-zero when any correctness check fails.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <sched.h>

#include "sim/simulator.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using nimcast::sim::Samples;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "nimcast_perfbench: %s\nusage: nimcast_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("bad --seed " + val);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds >= 0.0)) {
        usage("bad --seconds " + val);
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace " + val);
      a.trace = val == "1";
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  return to_samples(xs).median();
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Event-queue churn on its own: `depth` self-rescheduling events on one
/// simulator. A drift gauge for the shared machine, never a divisor.
double probe_events_per_s() {
  constexpr int kDepth = 512;
  constexpr std::uint64_t kEvents = 1'000'000;
  std::vector<double> rates;
  for (int trial = 0; trial < 3; ++trial) {
    nimcast::sim::Simulator sim;
    std::uint64_t scheduled = 0;
    struct Churn {
      nimcast::sim::Simulator* sim;
      std::uint64_t* scheduled;
      void operator()() const {
        if (*scheduled >= kEvents) return;
        ++*scheduled;
        const auto delta = static_cast<std::int64_t>(13 + (*scheduled * 7) % 64);
        sim->schedule_in(nimcast::sim::Time::ns(delta), *this);
      }
    };
    for (int i = 0; i < kDepth; ++i) {
      ++scheduled;
      sim.schedule_in(nimcast::sim::Time::ns(17 * (i + 1)),
                      Churn{&sim, &scheduled});
    }
    const std::int64_t t0 = now_ns();
    sim.run();
    const auto ns = static_cast<double>(now_ns() - t0);
    rates.push_back(static_cast<double>(sim.events_dispatched()) / ns * 1e9);
  }
  return median(rates);
}

/// Set-up repetitions on fresh instances, spread over the timed body so
/// that setup_s samples the whole run, not one moment of a shared
/// machine's load. Each instance is dropped right after its set-up.
class SetupSampler {
 public:
  SetupSampler(const Args& args, Tracer& tracer)
      : args_{args}, tracer_{tracer} {}

  /// Times one set-up of `w`.
  void time(Workload& w) {
    const std::int64_t t0 = now_ns();
    {
      Scoped s{tracer_, "bench.setup", static_cast<std::int64_t>(s_.size())};
      w.setup(args_.seed, tracer_);
    }
    s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  /// Plans the repetitions from the first set-up's duration: about
  /// kBudgetShare of the body, within [kMinReps, kMaxReps].
  void plan(double body_seconds) {
    const double per = std::max(s_.front(), 1e-6);
    target_ = std::clamp(static_cast<int>(kBudgetShare * body_seconds / per),
                         kMinReps, kMaxReps);
  }

  /// Runs set-ups until `fraction` of the planned ones are done.
  void catch_up(double fraction) {
    while (static_cast<double>(s_.size()) <
           fraction * static_cast<double>(target_)) {
      std::unique_ptr<Workload> fresh = make_workload(args_.workload);
      time(*fresh);
    }
  }

  [[nodiscard]] const std::vector<double>& seconds() const { return s_; }

 private:
  static constexpr double kBudgetShare = 0.05;
  static constexpr int kMinReps = 5;
  static constexpr int kMaxReps = 200;
  const Args& args_;
  Tracer& tracer_;
  std::vector<double> s_;
  int target_ = kMinReps;
};

/// Keeps the benchmark's one thread on the least contended CPU it may run
/// on. On a shared machine, other tenants load individual CPUs (a fixed
/// kernel can run 1.5x slower on one CPU than on another at the same
/// moment) and the load moves over seconds to minutes; timing on the
/// quietest CPU, re-chosen between calls, keeps much of that out of the
/// figures. The CPUs are compared by a small kernel that shares no code
/// with nimcast: random read-modify-writes over a 2 MiB table mixed with
/// integer arithmetic.
class CpuPicker {
 public:
  CpuPicker() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }

  /// Moves to the CPU where the kernel runs fastest (best of three).
  void pick() {
    last_ = now_ns();
    if (cpus_.size() < 2) return;
    std::size_t best = cpus_.front();
    std::int64_t best_ns = INT64_MAX;
    for (const std::size_t c : cpus_) {
      if (!pin(c)) continue;
      std::int64_t ns = INT64_MAX;
      for (int i = 0; i < 3; ++i) ns = std::min(ns, kernel_ns());
      if (ns < best_ns) {
        best_ns = ns;
        best = c;
      }
    }
    pin(best);
    last_ = now_ns();
  }

  /// Re-picks when the last pick is older than kEveryNs.
  void maybe_pick() {
    if (now_ns() - last_ >= kEveryNs) pick();
  }

 private:
  static constexpr std::int64_t kEveryNs = 500'000'000;

  static bool pin(std::size_t cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }

  std::int64_t kernel_ns() {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = ++salt_;
    for (int i = 0; i < (1 << 16); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      table_[(x >> 20) & (table_.size() - 1)] += x;
    }
    return now_ns() - t0;
  }

  std::vector<std::size_t> cpus_;
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(1 << 18, 0);
  std::uint64_t salt_ = 0;
  std::int64_t last_ = 0;
};

/// Repeated passes over the workload's calls.
struct Body {
  /// Fastest host time of each call. Only the minimum is kept, so memory
  /// does not grow with the number of passes a machine manages.
  std::vector<std::int64_t> call_min_ns;
  std::int64_t ops = 0;
  std::int64_t failed = 0;
  std::int64_t events = 0;
  std::int64_t digest_mismatches = 0;
};

/// Runs calls in pass order until `seconds` have elapsed and at least one
/// whole pass is done, keeping the set-up sampler on schedule: it reaches
/// `setup_to` of its plan by the end, starting from `setup_from`.
Body run_body(Workload& w, Tracer& tr, const std::vector<CallResult>& ref,
              double seconds, std::int64_t& next_op, CpuPicker& cpus,
              SetupSampler& setups, double setup_from, double setup_to) {
  Body b;
  b.call_min_ns.assign(w.calls(), INT64_MAX);
  const std::int64_t start = now_ns();
  const double budget = std::max(seconds * 1e9, 1.0);
  for (std::size_t i = 0;; ++i) {
    const std::size_t c = i % w.calls();
    const std::int64_t t0 = now_ns();
    const CallResult r = w.run_call(c, next_op, tr, nullptr);
    const std::int64_t t1 = now_ns();
    b.call_min_ns[c] = std::min(b.call_min_ns[c], t1 - t0);
    next_op += r.ops;
    b.ops += r.ops;
    b.failed += r.ops - r.ops_complete;
    b.events += r.events;
    if (r.digest != ref[c].digest) ++b.digest_mismatches;
    cpus.maybe_pick();
    const double done = std::min(1.0, static_cast<double>(t1 - start) / budget);
    setups.catch_up(setup_from + (setup_to - setup_from) * done);
    if (i + 1 >= w.calls() && done >= 1.0) break;
  }
  setups.catch_up(setup_to);
  return b;
}

/// Ops in one pass over the sum of per-call minimum host times. Load from
/// other tenants of a shared machine only ever adds time, and it comes in
/// stretches of seconds; the fastest of a call's repeats is its cost with
/// the least of that load, which varies far less from run to run than a
/// median does.
double ops_per_s(const Body& b, const std::vector<CallResult>& ref) {
  double ops = 0.0;
  double ns = 0.0;
  for (std::size_t c = 0; c < ref.size(); ++c) {
    ops += static_cast<double>(ref[c].ops);
    ns += static_cast<double>(b.call_min_ns[c]);
  }
  return ops / ns * 1e9;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or percentile, for the table only
};

bool is_engine_span(const std::string& name) {
  return name == "mcast.run" || name == "mcast.run_streaming" ||
         name == "traffic.run";
}

/// Per-layer figures from the traced spans: set-up calls summed per
/// set-up and medians taken over set-ups; body calls per call.
std::vector<Metric> span_metrics(const Tracer& tr, const Body& body) {
  const std::vector<Span>& spans = tr.spans();
  const std::vector<std::string> setup_calls = {
      "topology.build", "routing.router_build", "routing.table_build",
      "core.ordering", "traffic.generate"};
  std::map<std::string, std::map<std::int32_t, double>> per_setup;
  std::map<std::string, std::vector<double>> body_us;
  std::int64_t engine_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    if (tr.root_name(i) == "bench.setup") {
      if (name == "bench.setup") {
        for (const std::string& call : setup_calls) per_setup[call][s.root];
      } else {
        per_setup[name][s.root] += static_cast<double>(s.ns()) / 1e6;
      }
    } else {
      body_us[name].push_back(static_cast<double>(s.ns()) / 1e3);
      if (is_engine_span(name)) engine_ns += s.ns();
    }
  }

  std::vector<Metric> out;
  for (const std::string& call : setup_calls) {
    std::vector<double> xs;
    for (const auto& [root, ms] : per_setup[call]) xs.push_back(ms);
    out.push_back({call + "_ms", median(xs), "ms",
                   std::to_string(xs.size()) + " set-ups"});
  }
  const auto p50 = [&](const std::string& name, double scale,
                       const std::string& metric, const std::string& unit) {
    const std::vector<double>& xs = body_us[name];
    out.push_back({metric, median(xs) * scale, unit,
                   "n=" + std::to_string(xs.size())});
  };
  p50("core.tree", 1.0, "core.tree_us", "us");
  p50("core.bind", 1.0, "core.bind_us", "us");
  p50("core.plan_rotation", 1e-3, "core.plan_rotation_ms", "ms");
  p50("traffic.run", 1e-3, "traffic.run_ms", "ms");

  std::vector<double> engine_us = body_us["mcast.run"];
  const std::vector<double>& streaming = body_us["mcast.run_streaming"];
  engine_us.insert(engine_us.end(), streaming.begin(), streaming.end());
  const double tail = tail_percentile(engine_us.size());
  char note[64];
  std::snprintf(note, sizeof note, "p%g, n=%zu", tail, engine_us.size());
  out.push_back({"mcast.run_us.p50", median(engine_us), "us",
                 "n=" + std::to_string(engine_us.size())});
  out.push_back({"mcast.run_us.tail",
                 engine_us.empty() ? 0.0
                                   : to_samples(engine_us).percentile(tail),
                 "us", note});

  const double per_event =
      body.events > 0
          ? static_cast<double>(engine_ns) / static_cast<double>(body.events)
          : 0.0;
  out.push_back({"mcast.ns_per_event", engine_us.empty() ? 0.0 : per_event,
                 "ns", "engine-call time / events"});
  out.push_back({"sim.events_per_s", per_event > 0.0 ? 1e9 / per_event : 0.0,
                 "1/s", "events / engine-call time"});

  std::map<std::string, std::int64_t> self = tr.layer_self_ns("bench.op");
  const double ops = static_cast<double>(std::max<std::int64_t>(body.ops, 1));
  for (const char* layer : {"bench", "core", "mcast", "traffic"}) {
    out.push_back({std::string{layer} + ".self_us_per_op",
                   static_cast<double>(self[layer]) / 1e3 / ops, "us",
                   "traced body"});
  }
  return out;
}

void print_self_times(const Tracer& tr, const char* root, const char* what) {
  const std::map<std::string, std::int64_t> self = tr.layer_self_ns(root);
  std::int64_t total = 0;
  for (const auto& [layer, ns] : self) total += ns;
  std::printf("self time by layer, %s\n", what);
  for (const auto& [layer, ns] : self) {
    std::printf("  %-10s %12.3f ms %6.2f%%\n", layer.c_str(),
                static_cast<double>(ns) / 1e6,
                100.0 * static_cast<double>(ns) /
                    static_cast<double>(std::max<std::int64_t>(total, 1)));
  }
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-32s %16.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (w == nullptr) usage("unknown workload " + args.workload);
  CpuPicker cpus;
  cpus.pick();
  Tracer tracer{false};
  SetupSampler setups{args, tracer};
  setups.time(*w);
  setups.plan(args.seconds);

  // Warm-up pass: simulated metrics, reference digests, and the lazily
  // materialized routes in place before timing.
  SimTotals sim;
  std::vector<CallResult> ref;
  std::int64_t next_op = 0;
  for (std::size_t c = 0; c < w->calls(); ++c) {
    ref.push_back(w->run_call(c, next_op, tracer, &sim));
    next_op += ref.back().ops;
  }
  Digest pass_digest;
  for (const CallResult& r : ref) pass_digest.add(r.digest);

  const double half = args.trace ? 0.5 : 1.0;
  const Body untraced = run_body(*w, tracer, ref, args.seconds * half,
                                 next_op, cpus, setups, 0.0, half);
  const double untraced_ops_per_s = ops_per_s(untraced, ref);
  Body traced;
  if (args.trace) {
    tracer.set_enabled(true);
    traced = run_body(*w, tracer, ref, args.seconds * half, next_op, cpus,
                      setups, half, 1.0);
    tracer.set_enabled(false);
  }
  const double probe = probe_events_per_s();

  // Correctness.
  std::vector<std::string> errors = sim.errors;
  const std::int64_t mismatches =
      untraced.digest_mismatches + traced.digest_mismatches;
  if (mismatches > 0) {
    errors.push_back(std::to_string(mismatches) +
                     " timed calls disagree with the warm-up sim_digest");
  }
  const std::int64_t attempted = untraced.ops + traced.ops;
  const std::int64_t failed = untraced.failed + traced.failed;
  if (failed > 0 || sim.ops_complete != sim.ops) {
    errors.push_back("ops did not all complete on a workload where every "
                     "op must");
  }
  if (args.trace && !args.spans.empty() && !tracer.write_tsv(args.spans)) {
    errors.push_back("could not write spans to " + args.spans);
  }
  const bool correct = errors.empty();

  const Samples lat = to_samples(sim.op_latency_us);
  const double tail = tail_percentile(lat.count());
  const std::string n_ops = "n=" + std::to_string(lat.count());
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%g, %s, %zu beyond", tail,
                n_ops.c_str(), samples_beyond(tail, lat.count()));
  const double per_op = static_cast<double>(sim.ops);
  const double buffer_ops =
      static_cast<double>(std::max<std::int64_t>(sim.buffer_ops, 1));

  const std::vector<Metric> e2e = {
      {"setup_s", median(setups.seconds()), "s",
       "median of " + std::to_string(setups.seconds().size())},
      {"ops_per_s", untraced_ops_per_s, "1/s",
       "per-call minima, " + std::to_string(untraced.ops) + " ops timed"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "VmHWM"},
      {"sim_op_p50_us", lat.median(), "us", n_ops},
      {"sim_op_tail_us", lat.percentile(tail), "us", tail_note},
      {"sim_flits_per_us", sim.delivered_flits / sim.delivery_span_us,
       "flits/us", "delivered flits / simulated span"},
      {"completed_op_ratio",
       static_cast<double>(sim.ops_complete) / per_op, "ratio", n_ops},
  };

  std::vector<Metric> layers = {
      {"sim.events", static_cast<double>(sim.events), "count", "per pass"},
      {"sim.probe_events_per_s", probe, "1/s", "churn loop, median of 3"},
      {"routing.route_bytes", static_cast<double>(w->route_bytes()), "bytes",
       "after the runs"},
      {"mcast.repairs", static_cast<double>(sim.repairs), "count", "per pass"},
      {"mcast.replans", static_cast<double>(sim.replans), "count", "per pass"},
      {"mcast.resend_ratio",
       static_cast<double>(sim.packets_resent) /
           static_cast<double>(std::max<std::int64_t>(sim.packets_delivered, 1)),
       "ratio", "resent / delivered"},
      {"mcast.telemetry_snapshots",
       static_cast<double>(sim.telemetry_snapshots), "count", "per pass"},
      {"traffic.ticks", static_cast<double>(sim.ticks), "count", "per pass"},
      {"traffic.deferral_ticks_per_op",
       static_cast<double>(sim.deferral_ticks) / per_op, "count", n_ops},
      {"network.block_us_per_op", sim.block_us / per_op, "us", n_ops},
      {"network.packets_delivered",
       static_cast<double>(sim.packets_delivered), "count", "per pass"},
      {"netif.peak_buffer_packets", sim.peak_buffer_sum / buffer_ops,
       "packets", "mean per multicast op"},
      {"netif.buffer_integral_packet_us", sim.buffer_integral_sum / buffer_ops,
       "packet-us", "mean per multicast op"},
  };
  if (args.trace) {
    const std::vector<Metric> from_spans = span_metrics(tracer, traced);
    layers.insert(layers.end(), from_spans.begin(), from_spans.end());
    layers.push_back({"trace.overhead",
                      untraced_ops_per_s / ops_per_s(traced, ref), "ratio",
                      "untraced / traced ops_per_s"});
    layers.push_back({"trace.spans",
                      static_cast<double>(tracer.spans().size()), "count",
                      "kept in memory"});
  }

  std::printf("workload %s seed %" PRIu64 "\n", args.workload.c_str(),
              args.seed);
  std::printf("sim_digest %016" PRIx64 "\n", pass_digest.value());
  std::printf("%zu calls per pass; %.2f passes timed untraced, %.2f traced; "
              "%zu set-ups\n",
              w->calls(),
              static_cast<double>(untraced.ops) / per_op,
              static_cast<double>(traced.ops) / per_op,
              setups.seconds().size());
  for (const std::string& e : errors) std::printf("ERROR %s\n", e.c_str());
  print_table("end-to-end", e2e);
  print_table("per-layer", layers);
  if (args.trace) {
    print_self_times(tracer, "bench.op", "traced body");
    print_self_times(tracer, "bench.setup", "traced set-ups");
  }
  print_json(correct, attempted, failed, args.trace ? layers : e2e);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nimcast_perfbench: %s\n", e.what());
    return 1;
  }
}
