#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "core/rotation.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/route_alternatives.hpp"
#include "routing/route_table.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace perfbench {
namespace {

using namespace nimcast;

/// One built fabric: topology, up*/down* router, compressed route table
/// and CCO base chain — what every workload's set-up makes per fabric.
struct Fabric {
  std::unique_ptr<topo::Topology> topology;
  std::shared_ptr<const routing::UpDownRouter> router;
  std::unique_ptr<routing::RouteTable> routes;
  core::Chain cco;
};

Fabric finish_fabric(topo::Topology topology,
                     std::vector<std::int32_t> levels, Tracer& tr) {
  Fabric f;
  f.topology = std::make_unique<topo::Topology>(std::move(topology));
  {
    Scoped s{tr, "routing.router_build", -1};
    f.router = levels.empty()
                   ? std::make_shared<const routing::UpDownRouter>(
                         f.topology->switches())
                   : std::make_shared<const routing::UpDownRouter>(
                         f.topology->switches(), std::move(levels));
  }
  {
    Scoped s{tr, "routing.table_build", -1};
    f.routes = std::make_unique<routing::RouteTable>(*f.topology, f.router);
  }
  {
    Scoped s{tr, "core.ordering", -1};
    f.cco = core::cco_ordering(*f.topology, *f.router);
  }
  return f;
}

/// Random irregular fabric on the paper's port budget: 8-port switches
/// carrying 4 hosts and up to 4 switch links each.
Fabric irregular_fabric(std::int32_t hosts, sim::Rng& rng, Tracer& tr) {
  topo::IrregularConfig cfg;
  cfg.num_hosts = hosts;
  cfg.num_switches = hosts / 4;
  std::unique_ptr<topo::Topology> t;
  {
    Scoped s{tr, "topology.build", -1};
    t = std::make_unique<topo::Topology>(topo::make_irregular(cfg, rng));
  }
  return finish_fabric(std::move(*t), {}, tr);
}

/// Two-level fat tree of `edge` leaves with `edge` hosts each over
/// edge/2 spines (1024 hosts: 32 x 32 over 16).
Fabric fat_tree_fabric(std::int32_t edge, Tracer& tr) {
  topo::FatTreeConfig cfg;
  cfg.edge_switches = edge;
  cfg.hosts_per_edge = edge;
  cfg.spine_switches = edge / 2;
  std::unique_ptr<topo::Topology> t;
  {
    Scoped s{tr, "topology.build", -1};
    t = std::make_unique<topo::Topology>(topo::make_fat_tree(cfg));
  }
  return finish_fabric(std::move(*t), topo::fat_tree_levels(cfg), tr);
}

std::size_t route_bytes_of(const std::vector<Fabric>& fabrics) {
  std::size_t total = 0;
  for (const Fabric& f : fabrics) total += f.routes->memory_bytes();
  return total;
}

/// Source first, then `n - 1` distinct destinations.
std::pair<topo::HostId, std::vector<topo::HostId>> draw_set(
    std::int32_t hosts, std::int32_t n, sim::Rng& rng) {
  const auto draw = rng.sample_without_replacement(
      static_cast<std::size_t>(hosts), static_cast<std::size_t>(n));
  std::vector<topo::HostId> dests;
  for (std::size_t i = 1; i < draw.size(); ++i) {
    dests.push_back(static_cast<topo::HostId>(draw[i]));
  }
  return {static_cast<topo::HostId>(draw.front()), std::move(dests)};
}

std::vector<topo::HostId> all_but(std::int32_t hosts, topo::HostId source) {
  std::vector<topo::HostId> dests;
  for (topo::HostId h = 0; h < hosts; ++h) {
    if (h != source) dests.push_back(h);
  }
  return dests;
}

constexpr double kFlitsPerPacket = 64.0 / 8.0;  // default 64-byte packets

/// Fabrics are drawn from this fixed seed, the repository's default
/// testbed seed; the workload seed draws the inputs run on them
/// (destination sets, sources, traffic mixes, fault draws). Random
/// irregular generation is rejection sampling, so drawing the fabrics
/// from the workload seed would make set-up time depend on the seed.
constexpr std::uint64_t kFabricSeed = 1997;

/// One multicast op: tree building, binding and the engine call. The
/// tree is rebuilt per op, since per-op construction is part of what a
/// user of the library pays for each multicast.
struct MulticastOp {
  std::size_t fabric = 0;
  std::int32_t n = 0;
  std::int32_t m = 0;
  bool optimal = true;  ///< optimal k-binomial, else binomial
  topo::HostId source = topo::kInvalidId;
  std::vector<topo::HostId> dests;
};

CallResult run_multicast(const MulticastOp& op, const Fabric& fabric,
                         const mcast::MulticastEngine& engine,
                         std::int64_t op_id, Tracer& tr, SimTotals* totals) {
  Scoped span{tr, "bench.op", op_id};
  core::RankTree rank;
  {
    Scoped s{tr, "core.tree", op_id};
    rank = op.optimal ? core::make_kbinomial(op.n, core::optimal_k(op.n, op.m).k)
                      : core::make_binomial(op.n);
  }
  core::HostTree tree;
  {
    Scoped s{tr, "core.bind", op_id};
    tree = core::HostTree::bind(
        rank, core::arrange_participants(fabric.cco, op.source, op.dests));
  }
  mcast::MulticastResult r;
  {
    Scoped s{tr, "mcast.run", op_id};
    r = engine.run(tree, op.m);
  }

  Digest d;
  d.add(static_cast<std::uint64_t>(r.outcome));
  d.add_i(r.latency.count_ns());
  d.add_i(r.ni_latency.count_ns());
  d.add_i(r.packets_delivered);
  d.add_i(r.total_channel_block_time.count_ns());
  d.add_i(r.repairs);
  for (const auto& [host, at] : r.completions) {
    d.add_i(host);
    d.add_i(at.count_ns());
  }
  for (const mcast::BufferStat& b : r.buffers) {
    d.add_i(b.host);
    d.add_i(static_cast<std::int64_t>(b.peak_packets * 1000.0));
    d.add_i(static_cast<std::int64_t>(b.packet_us_integral * 1000.0));
  }
  const std::int64_t expected =
      static_cast<std::int64_t>(op.n - 1) * op.m;
  const bool complete = r.outcome == mcast::Outcome::kComplete &&
                        r.packets_delivered == expected &&
                        r.delivered_count() == op.n - 1;
  if (totals != nullptr) {
    totals->op_latency_us.push_back(r.latency.as_us());
    ++totals->ops;
    totals->ops_complete += complete ? 1 : 0;
    totals->delivered_flits +=
        static_cast<double>(r.packets_delivered) * kFlitsPerPacket;
    totals->delivery_span_us += r.latency.as_us();
    totals->events += r.events_dispatched;
    totals->packets_delivered += r.packets_delivered;
    totals->block_us += r.total_channel_block_time.as_us();
    totals->repairs += r.repairs;
    totals->peak_buffer_sum += r.peak_buffer();
    totals->buffer_integral_sum += r.max_buffer_integral();
    ++totals->buffer_ops;
    if (!complete) {
      totals->errors.push_back(
          "multicast op " + std::to_string(op_id) + " (n=" +
          std::to_string(op.n) + ", m=" + std::to_string(op.m) + ") ended " +
          mcast::to_string(r.outcome) + " with " +
          std::to_string(r.packets_delivered) + " of " +
          std::to_string(expected) + " deliveries");
    }
  }
  return CallResult{1, complete ? 1 : 0, r.events_dispatched, d.value()};
}

/// Workloads made of independent single multicasts.
class MulticastWorkload : public Workload {
 public:
  [[nodiscard]] std::size_t calls() const override { return ops_.size(); }

  CallResult run_call(std::size_t i, std::int64_t op_base, Tracer& tracer,
                      SimTotals* totals) override {
    const MulticastOp& op = ops_[i];
    return run_multicast(op, fabrics_[op.fabric], engines_[op.fabric],
                         op_base, tracer, totals);
  }

  [[nodiscard]] std::size_t route_bytes() const override {
    return route_bytes_of(fabrics_);
  }

 protected:
  void reset() {
    ops_.clear();
    engines_.clear();
    fabrics_.clear();
  }
  /// Smart FPFS on the default fabric, serial engine.
  void add_engines() {
    for (const Fabric& f : fabrics_) {
      engines_.emplace_back(*f.topology, *f.routes,
                            mcast::MulticastEngine::Config{
                                netif::SystemParams{}, net::NetworkConfig{},
                                mcast::NiStyle::kSmartFpfs});
    }
  }

  std::vector<Fabric> fabrics_;
  std::vector<mcast::MulticastEngine> engines_;
  std::vector<MulticastOp> ops_;
};

// paper_rig: the paper's Section 5.2 method. Ten random 64-host irregular
// topologies x 6 destination draws x n in {16, 48, 64} x m in {1, 8, 32}
// x {optimal k-binomial, binomial} = 1080 short uncontended multicasts —
// enough that the p99 has more than ten samples beyond it.
constexpr std::int32_t kPaperTopologies = 10;
constexpr std::int32_t kPaperSets = 6;

class PaperRig final : public MulticastWorkload {
 public:
  void setup(std::uint64_t seed, Tracer& tr) override {
    reset();
    sim::Rng fabric_rng{kFabricSeed};
    for (std::int32_t t = 0; t < kPaperTopologies; ++t) {
      fabrics_.push_back(irregular_fabric(64, fabric_rng, tr));
    }
    sim::Rng rng{seed};
    add_engines();
    for (std::size_t t = 0; t < fabrics_.size(); ++t) {
      for (std::int32_t s = 0; s < kPaperSets; ++s) {
        for (const std::int32_t n : {16, 48, 64}) {
          auto [source, dests] = draw_set(64, n, rng);
          for (const std::int32_t m : {1, 8, 32}) {
            for (const bool optimal : {true, false}) {
              ops_.push_back(MulticastOp{t, n, m, optimal, source, dests});
            }
          }
        }
      }
    }
  }
};

// bcast_1024: full m = 16 broadcasts over the optimal tree on the
// 1024-host fat tree and a 1024-host irregular fabric, 20 sources each.
// Few, long simulations: deep event queues and hop-level network work.
constexpr std::int32_t kBcastSources = 20;
constexpr std::int32_t kBcastPackets = 16;

class Bcast1024 final : public MulticastWorkload {
 public:
  void setup(std::uint64_t seed, Tracer& tr) override {
    reset();
    sim::Rng fabric_rng{kFabricSeed};
    fabrics_.push_back(fat_tree_fabric(32, tr));
    fabrics_.push_back(irregular_fabric(1024, fabric_rng, tr));
    sim::Rng rng{seed};
    add_engines();
    for (std::size_t f = 0; f < fabrics_.size(); ++f) {
      for (std::int32_t s = 0; s < kBcastSources; ++s) {
        const auto source = static_cast<topo::HostId>(rng.next_below(1024));
        ops_.push_back(MulticastOp{f, 1024, kBcastPackets, true, source,
                                   all_but(1024, source)});
      }
    }
  }
};

// traffic_sat: open-loop multi-tenant mixes on 64-host irregular fabrics
// at 16 B/µs (one packet serializes in 4 µs, so channels bind), offered
// at 2560 ops/ms — the saturation point bench_traffic gates — under its
// paced scheduler operating point. 384-op mixes keep hundreds of ops in
// flight; 2 fabrics x 6 mixes give 4608 flow-completion samples, enough
// mixes that the seed-to-seed spread of the pooled percentiles is small.
constexpr std::int32_t kTrafficTopologies = 2;
constexpr std::int32_t kMixesPerTopology = 6;
constexpr std::int32_t kMixOps = 384;

class TrafficSat final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tr) override {
    mixes_.clear();
    engines_.clear();
    fabrics_.clear();
    sim::Rng fabric_rng{kFabricSeed};
    for (std::int32_t t = 0; t < kTrafficTopologies; ++t) {
      fabrics_.push_back(irregular_fabric(64, fabric_rng, tr));
    }
    sim::Rng rng{seed};
    traffic::TrafficConfig cfg;
    cfg.network.bandwidth_bytes_per_us = 16.0;
    cfg.scheduler.policy = traffic::Policy::kPaced;
    cfg.scheduler.overlap_tolerance_x1000 = 500;
    cfg.scheduler.max_defer_ticks = 2;
    cfg.scheduler.tick = sim::Time::us(5.0);
    for (std::size_t t = 0; t < fabrics_.size(); ++t) {
      engines_.emplace_back(*fabrics_[t].topology, *fabrics_[t].routes, cfg);
      for (std::int32_t k = 0; k < kMixesPerTopology; ++k) {
        traffic::WorkloadConfig w;
        w.num_ops = kMixOps;
        w.ops_per_ms = 2560.0;
        w.min_group = 4;
        w.max_group = 24;
        w.seed = rng.next_u64();
        Scoped s{tr, "traffic.generate", -1};
        mixes_.push_back(
            Mix{t, traffic::generate_workload(64, fabrics_[t].cco, w)});
      }
    }
  }

  [[nodiscard]] std::size_t calls() const override { return mixes_.size(); }

  CallResult run_call(std::size_t i, std::int64_t op_base, Tracer& tr,
                      SimTotals* totals) override {
    const Mix& mix = mixes_[i];
    Scoped span{tr, "bench.op", op_base};
    traffic::TrafficResult r;
    {
      Scoped s{tr, "traffic.run", op_base};
      r = engines_[mix.fabric].run(mix.workload);
    }
    Digest d;
    d.add_i(r.makespan.count_ns());
    d.add_i(r.packets_delivered);
    d.add_i(r.ticks);
    d.add_i(r.deferral_ticks);
    d.add_i(r.total_channel_block_time.count_ns());
    std::int64_t op_sum = 0;
    bool ordered = true;
    for (const traffic::OpRecord& op : r.ops) {
      d.add(static_cast<std::uint64_t>(op.cls));
      d.add_i(op.arrival.count_ns());
      d.add_i(op.admitted.count_ns());
      d.add_i(op.completed.count_ns());
      d.add_i(op.packets_delivered);
      d.add_i(op.deferral_ticks);
      op_sum += op.packets_delivered;
      ordered = ordered && op.arrival <= op.admitted &&
                op.admitted <= op.completed && op.packets_delivered > 0;
    }
    const auto n_ops = static_cast<std::int64_t>(r.ops.size());
    const bool conserved = op_sum == r.packets_delivered &&
                           n_ops == static_cast<std::int64_t>(
                                        mix.workload.ops.size());
    const std::int64_t complete = conserved && ordered ? n_ops : 0;
    if (totals != nullptr) {
      for (const traffic::OpRecord& op : r.ops) {
        totals->op_latency_us.push_back(op.fct().as_us());
      }
      totals->ops += n_ops;
      totals->ops_complete += complete;
      totals->delivered_flits +=
          static_cast<double>(r.packets_delivered) * kFlitsPerPacket;
      totals->delivery_span_us += r.makespan.as_us();
      totals->events += r.events_dispatched;
      totals->packets_delivered += r.packets_delivered;
      totals->block_us += r.total_channel_block_time.as_us();
      totals->ticks += r.ticks;
      totals->deferral_ticks += r.deferral_ticks;
      if (!conserved) {
        totals->errors.push_back(
            "traffic mix " + std::to_string(i) + " delivered " +
            std::to_string(r.packets_delivered) + " packets but its " +
            std::to_string(n_ops) + " ops sum to " + std::to_string(op_sum));
      }
      if (!ordered) {
        totals->errors.push_back("traffic mix " + std::to_string(i) +
                                 " has an op completing before admission "
                                 "or delivering nothing");
      }
    }
    return CallResult{n_ops, complete, r.events_dispatched, d.value()};
  }

  [[nodiscard]] std::size_t route_bytes() const override {
    return route_bytes_of(fabrics_);
  }

 private:
  struct Mix {
    std::size_t fabric = 0;
    traffic::Workload workload;
  };
  std::vector<Fabric> fabrics_;
  std::vector<traffic::TrafficEngine> engines_;
  std::vector<Mix> mixes_;
};

// stream_fault: 128-packet streaming broadcasts on 64-host irregular
// fabrics, R = 4 rotation with adaptive selection, and one switch link
// crossed by the fixed tree failing mid-stream. 4 fabrics x 15 sources =
// 60 streams: few enough that each is timed about 30 times in a run. Loss is left out: lossy smart-FPFS streams end kPartial.
//
// The failing link is drawn among links whose loss keeps the switch graph
// connected (every destination stays reachable) and leaves the up*/down*
// orientation unchanged. A fault that re-orients the fabric can deadlock
// run_streaming at R > 1: every deadlock seen followed such a fault, which
// suggests worms on rotation routes of the old orientation meeting routes
// rebuilt under the new one. The stream_fault_reorient workload, kept out
// of the benchmark's list, draws only such faults and reproduces it.
constexpr std::int32_t kStreamTopologies = 4;
constexpr std::int32_t kStreamsPerTopology = 15;
constexpr std::int32_t kStreamPackets = 128;
constexpr std::int32_t kRotation = 4;
constexpr double kFaultFromUs = 100.0;
constexpr double kFaultToUs = 400.0;

/// Switch links whose loss keeps the switch graph connected and, when
/// `reorient` is false, leaves the rebuilt up*/down* root and levels as
/// they were (when true: changes them).
std::vector<topo::LinkId> fault_candidates(const topo::Graph& g,
                                           const routing::UpDownRouter& base,
                                           bool reorient) {
  std::vector<topo::LinkId> out;
  for (topo::LinkId e = 0; e < g.num_edges(); ++e) {
    topo::SubgraphMask mask;
    mask.dead_link.assign(static_cast<std::size_t>(g.num_edges()), false);
    mask.dead_link[static_cast<std::size_t>(e)] = true;
    const auto levels = g.bfs_levels(0, mask);
    if (std::find(levels.begin(), levels.end(), -1) != levels.end()) continue;
    const routing::UpDownRouter rebuilt{g, mask};
    const bool same = rebuilt.root() == base.root() &&
                      rebuilt.levels() == base.levels();
    if (same != reorient) out.push_back(e);
  }
  return out;
}

class StreamFault final : public Workload {
 public:
  explicit StreamFault(bool reorient) : reorient_{reorient} {}

  void setup(std::uint64_t seed, Tracer& tr) override {
    streams_.clear();
    fabrics_.clear();
    sim::Rng fabric_rng{kFabricSeed};
    for (std::int32_t t = 0; t < kStreamTopologies; ++t) {
      fabrics_.push_back(irregular_fabric(64, fabric_rng, tr));
    }
    sim::Rng rng{seed};
    fanout_ = core::optimal_k(64, 4).k;
    const core::RankTree fixed = core::make_kbinomial(64, fanout_);
    for (std::size_t t = 0; t < fabrics_.size(); ++t) {
      const Fabric& f = fabrics_[t];
      const std::vector<topo::LinkId> candidates =
          fault_candidates(f.topology->switches(), *f.router, reorient_);
      if (candidates.empty()) {
        throw std::runtime_error("stream_fault: fabric has no candidate link");
      }
      for (std::int32_t s = 0; s < kStreamsPerTopology; ++s) {
        const auto source = static_cast<topo::HostId>(rng.next_below(64));
        std::vector<topo::HostId> dests = all_but(64, source);
        // Prefer a link the fixed tree's routes cross, so the fault
        // forces repair and a rotation re-plan.
        const core::HostTree tree = core::HostTree::bind(
            fixed, core::arrange_participants(f.cco, source, dests));
        std::vector<std::pair<topo::HostId, topo::HostId>> edges;
        for (const auto& [parent, children] : tree.children) {
          for (const topo::HostId c : children) edges.emplace_back(parent, c);
        }
        std::sort(edges.begin(), edges.end());
        const std::int32_t vcs = f.routes->virtual_channels();
        std::vector<topo::LinkId> crossed;
        for (const std::int32_t chan :
             routing::edge_channel_footprint(*f.topology, *f.routes, edges)) {
          const topo::LinkId link = chan / (2 * vcs);
          if (std::binary_search(candidates.begin(), candidates.end(), link) &&
              (crossed.empty() || crossed.back() != link)) {
            crossed.push_back(link);
          }
        }
        const std::vector<topo::LinkId>& pool =
            crossed.empty() ? candidates : crossed;
        const topo::LinkId link = pool[rng.next_below(pool.size())];
        const double at_us =
            kFaultFromUs + (kFaultToUs - kFaultFromUs) * rng.next_double();

        mcast::MulticastEngine::Config cfg{netif::SystemParams{},
                                           net::NetworkConfig{},
                                           mcast::NiStyle::kSmartFpfs};
        cfg.selection = mcast::Selection::kAdaptive;
        cfg.network.faults.link_down(sim::Time::us(at_us), link);
        streams_.push_back(Stream{t, source, std::move(dests), cfg});
      }
    }
  }

  [[nodiscard]] std::size_t calls() const override { return streams_.size(); }

  CallResult run_call(std::size_t i, std::int64_t op_id, Tracer& tr,
                      SimTotals* totals) override {
    const Stream& st = streams_[i];
    const Fabric& f = fabrics_[st.fabric];
    Scoped span{tr, "bench.op", op_id};
    core::Chain members;
    {
      Scoped s{tr, "core.bind", op_id};
      members = core::arrange_participants(f.cco, st.source, st.dests);
    }
    core::RotationPlan plan;
    {
      Scoped s{tr, "core.plan_rotation", op_id};
      core::RotationConfig rc;
      rc.rotation_trees = kRotation;
      rc.fanout_bound = fanout_;
      plan = core::plan_rotation(*f.topology, *f.routes, *f.router, members,
                                 rc);
    }
    mcast::StreamingResult r;
    std::string thrown;
    {
      Scoped s{tr, "mcast.run_streaming", op_id};
      const mcast::MulticastEngine engine{*f.topology, *f.routes, st.config};
      try {
        r = engine.run_streaming(plan, kStreamPackets);
      } catch (const std::runtime_error& e) {
        thrown = e.what();  // a deadlocked stream is a failed op
        r.outcome = mcast::Outcome::kFailed;
      }
    }

    Digest d;
    d.add(thrown.empty() ? 0u : 1u);
    d.add(static_cast<std::uint64_t>(r.outcome));
    d.add_i(r.makespan.count_ns());
    d.add_i(r.ni_makespan.count_ns());
    d.add_i(r.p99_gap.count_ns());
    d.add_i(r.packets_delivered);
    d.add_i(r.repairs);
    d.add_i(r.replans);
    d.add_i(r.root_handoffs);
    d.add_i(r.packets_resent);
    d.add_i(r.telemetry_snapshots);
    d.add_i(r.total_channel_block_time.count_ns());
    for (const std::int64_t p : r.member_packets) d.add_i(p);
    std::vector<topo::HostId> seen;
    std::int32_t delivered = 0;
    for (const mcast::DestinationStatus& ds : r.destinations) {
      d.add_i(ds.host);
      d.add(ds.delivered ? 1u : 0u);
      d.add(ds.reachable ? 1u : 0u);
      d.add_i(ds.completed_at.count_ns());
      seen.push_back(ds.host);
      delivered += ds.delivered ? 1 : 0;
    }
    std::sort(seen.begin(), seen.end());
    const bool accounted = thrown.empty() && seen == st.dests;
    const bool complete =
        accounted && r.outcome == mcast::Outcome::kComplete &&
        delivered == static_cast<std::int32_t>(st.dests.size()) &&
        r.packets_delivered ==
            static_cast<std::int64_t>(st.dests.size()) * kStreamPackets;
    if (totals != nullptr) {
      totals->op_latency_us.push_back(r.makespan.as_us());
      ++totals->ops;
      totals->ops_complete += complete ? 1 : 0;
      totals->delivered_flits +=
          static_cast<double>(r.packets_delivered) * kFlitsPerPacket;
      totals->delivery_span_us += r.ni_makespan.as_us();
      totals->events += r.events_dispatched;
      totals->packets_delivered += r.packets_delivered;
      totals->block_us += r.total_channel_block_time.as_us();
      totals->repairs += r.repairs;
      totals->replans += r.replans;
      totals->packets_resent += r.packets_resent;
      totals->telemetry_snapshots += r.telemetry_snapshots;
      if (!thrown.empty()) {
        totals->errors.push_back("stream " + std::to_string(i) + ": " + thrown);
      } else if (!accounted) {
        totals->errors.push_back("stream " + std::to_string(i) +
                                 " does not account for every destination");
      } else if (!complete) {
        totals->errors.push_back(
            "stream " + std::to_string(i) + " ended " +
            mcast::to_string(r.outcome) + " with " + std::to_string(delivered) +
            " of " + std::to_string(st.dests.size()) +
            " destinations and " + std::to_string(r.packets_delivered) +
            " packets delivered");
      }
    }
    return CallResult{1, complete ? 1 : 0, r.events_dispatched, d.value()};
  }

  [[nodiscard]] std::size_t route_bytes() const override {
    return route_bytes_of(fabrics_);
  }

 private:
  struct Stream {
    std::size_t fabric = 0;
    topo::HostId source = topo::kInvalidId;
    std::vector<topo::HostId> dests;  ///< ascending
    mcast::MulticastEngine::Config config;
  };
  bool reorient_;
  std::vector<Fabric> fabrics_;
  std::vector<Stream> streams_;
  std::int32_t fanout_ = 1;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_rig", "bcast_1024",
                                                 "traffic_sat", "stream_fault"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper_rig") return std::make_unique<PaperRig>();
  if (name == "bcast_1024") return std::make_unique<Bcast1024>();
  if (name == "traffic_sat") return std::make_unique<TrafficSat>();
  if (name == "stream_fault") return std::make_unique<StreamFault>(false);
  if (name == "stream_fault_reorient") {
    return std::make_unique<StreamFault>(true);
  }
  return nullptr;
}

}  // namespace perfbench
