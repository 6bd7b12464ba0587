#include "traffic/traffic_engine.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "mcast/fabric.hpp"
#include "netif/host.hpp"
#include "netif/smart_ni.hpp"
#include "network/wormhole_network.hpp"
#include "routing/route_alternatives.hpp"
#include "sim/simulator.hpp"

namespace nimcast::traffic {

namespace {

/// One launchable message of the flattened mix. Tree messages ride a
/// workload tree; a null tree is a two-node gather leg src -> dst (the
/// collective incast phase). Message id = plan index + 1.
struct MsgPlan {
  std::size_t op = 0;
  std::size_t phase = 0;
  const core::HostTree* tree = nullptr;
  topo::HostId src = topo::kInvalidId;
  topo::HostId dst = topo::kInvalidId;
  std::int32_t packets = 1;
  /// Destinations that must complete this message.
  std::int32_t expected = 0;

  [[nodiscard]] topo::HostId root() const { return tree ? tree->root : src; }
};

/// Flattens the mix: multicasts and plain streams are one phase-0 tree
/// message; churn streams split into a phase-0 prefix on `tree` and a
/// phase-1 suffix on `tree2`; collectives gather every member to the
/// root (phase 0, one two-node message per member) then broadcast back
/// down the tree (phase 1).
std::vector<MsgPlan> build_plans(const Workload& workload) {
  std::vector<MsgPlan> plans;
  for (std::size_t op = 0; op < workload.ops.size(); ++op) {
    const TrafficOp& o = workload.ops[op];
    switch (o.cls) {
      case OpClass::kMulticast:
      case OpClass::kStream:
        if (o.churn) {
          plans.push_back(MsgPlan{op, 0, &o.tree, topo::kInvalidId,
                                  topo::kInvalidId, o.split,
                                  o.tree.size() - 1});
          plans.push_back(MsgPlan{op, 1, &o.tree2, topo::kInvalidId,
                                  topo::kInvalidId, o.packets - o.split,
                                  o.tree2.size() - 1});
        } else {
          plans.push_back(MsgPlan{op, 0, &o.tree, topo::kInvalidId,
                                  topo::kInvalidId, o.packets,
                                  o.tree.size() - 1});
        }
        break;
      case OpClass::kCollective:
        for (topo::HostId h : o.tree.nodes) {
          if (h == o.tree.root) continue;
          plans.push_back(
              MsgPlan{op, 0, nullptr, h, o.tree.root, o.packets, 1});
        }
        plans.push_back(MsgPlan{op, 1, &o.tree, topo::kInvalidId,
                                topo::kInvalidId, o.packets,
                                o.tree.size() - 1});
        break;
    }
  }
  return plans;
}

void collect_edges(const MsgPlan& m,
                   std::vector<std::pair<topo::HostId, topo::HostId>>& out) {
  if (m.tree) {
    for (topo::HostId h : m.tree->nodes) {
      for (topo::HostId c : m.tree->children.at(h)) out.emplace_back(h, c);
    }
  } else {
    out.emplace_back(m.src, m.dst);
  }
}

void validate_workload(const topo::Topology& topology,
                       const Workload& workload) {
  if (workload.ops.empty()) {
    throw std::invalid_argument("TrafficEngine: empty workload");
  }
  sim::Time prev = sim::Time::zero();
  for (const TrafficOp& o : workload.ops) {
    if (o.arrival < prev) {
      throw std::invalid_argument(
          "TrafficEngine: arrivals not nondecreasing");
    }
    prev = o.arrival;
    if (o.packets < 1) {
      throw std::invalid_argument("TrafficEngine: packets < 1");
    }
    if (o.tree.size() < 2) {
      throw std::invalid_argument("TrafficEngine: group smaller than 2");
    }
    for (topo::HostId h : o.tree.nodes) {
      if (h < 0 || h >= topology.num_hosts()) {
        throw std::invalid_argument("TrafficEngine: host out of range");
      }
    }
    if (o.churn) {
      if (o.cls != OpClass::kStream) {
        throw std::invalid_argument(
            "TrafficEngine: churn on a non-stream operation");
      }
      if (o.split < 1 || o.split >= o.packets) {
        throw std::invalid_argument(
            "TrafficEngine: churn split out of [1, packets)");
      }
      if (o.tree2.size() < 1 || o.tree2.root != o.tree.root) {
        throw std::invalid_argument(
            "TrafficEngine: churn re-bind disagrees on root");
      }
      for (topo::HostId h : o.tree2.nodes) {
        if (h < 0 || h >= topology.num_hosts()) {
          throw std::invalid_argument("TrafficEngine: host out of range");
        }
      }
    }
  }
}

}  // namespace

TrafficEngine::TrafficEngine(const topo::Topology& topology,
                             const routing::RouteTable& routes,
                             TrafficConfig config)
    : topology_{topology}, routes_{routes}, config_{config} {
  if (!config_.network.faults.empty()) {
    throw std::invalid_argument(
        "TrafficEngine: fault plans are not supported (the multi-tenant "
        "engine runs a pristine fabric; repair interacting with admission "
        "control is a separate workload)");
  }
  if (config_.network.loss_rate > 0.0) {
    throw std::invalid_argument("TrafficEngine: loss is not supported");
  }
}

sim::Time TrafficEngine::planned_window(const Workload& workload) const {
  validate_workload(topology_, workload);
  if (config_.shards <= 1) return sim::Time::zero();
  std::size_t max_hops = 0;
  if (config_.network.release_model == net::ReleaseModel::kPipelined) {
    std::vector<std::pair<topo::HostId, topo::HostId>> edges;
    for (const MsgPlan& m : build_plans(workload)) {
      edges.clear();
      collect_edges(m, edges);
      for (const auto& [a, b] : edges) {
        // Both directions: drain acknowledgements retrace the edge.
        max_hops = std::max({max_hops, routes_.hops(a, b), routes_.hops(b, a)});
      }
    }
  }
  return mcast::Fabric::conservative_window(config_.network, max_hops,
                                            config_.window);
}

TrafficResult TrafficEngine::run(const Workload& workload) const {
  validate_workload(topology_, workload);
  const std::vector<MsgPlan> plans = build_plans(workload);
  const std::size_t num_ops = workload.ops.size();

  // Per-op message index lists by phase, participants, channel
  // footprints (every message of the op, forward edge direction — the
  // switch channels the op's worms will fight over).
  std::vector<std::vector<std::size_t>> op_msgs0(num_ops);
  std::vector<std::vector<std::size_t>> op_msgs1(num_ops);
  std::vector<std::vector<std::int32_t>> op_foot(num_ops);
  std::unordered_set<topo::HostId> participants;
  {
    std::vector<std::vector<std::pair<topo::HostId, topo::HostId>>> op_edges(
        num_ops);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const MsgPlan& m = plans[i];
      (m.phase == 0 ? op_msgs0 : op_msgs1)[m.op].push_back(i);
      collect_edges(m, op_edges[m.op]);
      if (m.tree) {
        for (topo::HostId h : m.tree->nodes) participants.insert(h);
      } else {
        participants.insert(m.src);
        participants.insert(m.dst);
      }
    }
    for (std::size_t op = 0; op < num_ops; ++op) {
      op_foot[op] =
          routing::edge_channel_footprint(topology_, routes_, op_edges[op]);
    }
  }

  // The ONE window choice for the whole shared fabric. A mid-mix
  // re-shard would tear down every in-flight worm, so the global pick
  // must already be safe for every operation: assert it equals the min
  // over per-op conservative windows (the regression this engine
  // replaces computed pick_window per single operation).
  const sim::Time window = planned_window(workload);
  if (config_.shards > 1) {
    sim::Time per_op_min;
    bool first = true;
    for (std::size_t op = 0; op < num_ops; ++op) {
      std::size_t hops = 0;
      if (config_.network.release_model == net::ReleaseModel::kPipelined) {
        std::vector<std::pair<topo::HostId, topo::HostId>> edges;
        for (std::size_t i : op_msgs0[op]) collect_edges(plans[i], edges);
        for (std::size_t i : op_msgs1[op]) collect_edges(plans[i], edges);
        for (const auto& [a, b] : edges) {
          hops = std::max({hops, routes_.hops(a, b), routes_.hops(b, a)});
        }
      }
      const sim::Time w = mcast::Fabric::conservative_window(
          config_.network, hops, config_.window);
      per_op_min = first ? w : std::min(per_op_min, w);
      first = false;
    }
    if (per_op_min != window) {
      throw std::logic_error(
          "TrafficEngine: shared-fabric window diverged from the per-op "
          "minimum — the engine would have to re-shard mid-mix");
    }
  }

  mcast::Fabric fabric{topology_, routes_, config_.network, config_.shards,
                       window,    {},      nullptr};
  const bool sharded_mode = fabric.sharded();
  const std::int32_t num_shards = fabric.num_shards();
  net::WormholeNetwork& network = fabric.network();
  const auto sim_for_host = [&](topo::HostId h) -> sim::Simulator& {
    return fabric.sim_for_host(h);
  };

  // Derived scheduler knobs. The tick period is one steady-state packet
  // service time (receive + widest forwarding fan-out of the mix) — long
  // enough for fresh block-time deltas between re-scores, short enough
  // to react within a packet or two. A channel is telemetry-hot when it
  // blocked worms for ~4 packet serialization times inside one tick.
  SchedulerConfig scfg = config_.scheduler;
  if (scfg.tick == sim::Time::zero()) {
    std::int64_t fanout = 1;
    for (const MsgPlan& m : plans) {
      if (!m.tree) continue;
      for (topo::HostId h : m.tree->nodes) {
        fanout = std::max(
            fanout, static_cast<std::int64_t>(m.tree->children.at(h).size()));
      }
    }
    scfg.tick = config_.params.t_rcv + config_.params.t_snd * fanout;
  }
  if (scfg.hot_block_ns == 0) {
    scfg.hot_block_ns = 4 * config_.network.serialization_time().count_ns();
  }
  GroupScheduler sched{scfg, network.num_channels()};

  mcast::PerHost<netif::NetworkInterface> nis{topology_.num_hosts()};
  mcast::PerHost<netif::Host> hosts{topology_.num_hosts()};
  for (topo::HostId h : participants) {
    sim::Simulator& hsim = sim_for_host(h);
    nis.emplace(h, std::make_unique<netif::FpfsNi>(hsim, network,
                                                   config_.params, h,
                                                   nullptr));
    hosts.emplace(h, std::make_unique<netif::Host>(hsim, h, config_.params));
  }

  for (std::size_t i = 0; i < plans.size(); ++i) {
    const MsgPlan& m = plans[i];
    const auto message = static_cast<net::MessageId>(i + 1);
    if (m.tree) {
      for (topo::HostId h : m.tree->nodes) {
        netif::ForwardingEntry entry;
        entry.children = m.tree->children.at(h);
        entry.packet_count = m.packets;
        entry.is_destination = (h != m.tree->root);
        nis[h].install(message, entry);
      }
    } else {
      netif::ForwardingEntry at_src;
      at_src.children = {m.dst};
      at_src.packet_count = m.packets;
      at_src.is_destination = false;
      nis[m.src].install(message, at_src);
      netif::ForwardingEntry at_dst;
      at_dst.packet_count = m.packets;
      at_dst.is_destination = true;
      nis[m.dst].install(message, at_dst);
    }
  }

  // Per-shard logs, appended only by the owning shard's thread. Host-level
  // completion records are merged after the run, sorted by (time, host,
  // message) — bit-identical serial vs sharded, as in MulticastEngine.
  // The arrival log holds the message index of every NI arrival since
  // the last sweep, which drains it at a barrier instant. An NI reports
  // a message once, when its last packet arrives (a second copy throws),
  // so each (message, destination) pair is logged exactly once.
  struct CompletionLog {
    std::vector<std::tuple<std::size_t, topo::HostId, sim::Time>> host_done;
    std::vector<std::size_t> arrivals;
  };
  std::vector<std::unique_ptr<CompletionLog>> logs;
  for (std::int32_t s = 0; s < num_shards; ++s) {
    logs.push_back(std::make_unique<CompletionLog>());
  }

  for (topo::HostId h : participants) {
    nis[h].on_message_at_ni = [&](topo::HostId dest, net::MessageId msg) {
      const auto mi = static_cast<std::size_t>(msg - 1);
      CompletionLog& log = *logs[static_cast<std::size_t>(
          sharded_mode ? network.shard_of_host(dest) : 0)];
      log.arrivals.push_back(mi);
      hosts[dest].software_receive([&, logp = &log, dest, msg, mi] {
        logp->host_done.emplace_back(mi, dest, sim_for_host(dest).now());
        nis[dest].after_host_receive(msg, hosts[dest]);
      });
    };
  }

  // ---- Coordinator state. Mutated ONLY inside coordinated events (the
  // single-threaded barrier phase in sharded mode), so every admission
  // decision is a pure function of simulated history.
  struct OpState {
    bool phase1_launched = false;
    std::int32_t waited = 0;
    sim::Time admitted_at;
    /// Messages per phase with destinations still to reach.
    std::array<std::int32_t, 2> undone{};
  };
  std::vector<OpState> st(num_ops);
  // Destinations each message has still to reach. A message without
  // destinations (a churn re-bind down to the root alone) never counts
  // as undone.
  std::vector<std::int32_t> remaining(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    remaining[i] = plans[i].expected;
    if (remaining[i] > 0) ++st[plans[i].op].undone[plans[i].phase];
  }
  std::vector<std::size_t> deferred;  // op indices, arrival order
  // Ops whose counters changed since the last sweep, the only ones a
  // sweep visits, and the ops a sweep hands to the next one.
  std::vector<std::size_t> touched;
  std::vector<std::size_t> carried;
  // Admitted ops whose second phase has not launched yet.
  std::int64_t awaiting_phase1 = 0;
  std::int64_t ticks = 0;
  bool tick_active = false;
  sim::Time next_tick;

  const auto launch_msg = [&](std::size_t i) {
    const auto message = static_cast<net::MessageId>(i + 1);
    const topo::HostId root = plans[i].root();
    nis[root].start_from_host(message, hosts[root]);
  };

  // One coordinator sweep, run at every coordinated instant (arrival or
  // tick): fold the fabric's view into the scheduler, count down the
  // messages that reached destinations since the last sweep, then
  // releases before phase transitions before (at ticks) admissions, so
  // freed capacity is visible to every decision at the same instant.
  // Touched ops are visited in ascending op index: the order of
  // launch_msg calls sets same-instant FIFO tie-breaks in the NIs and the
  // fabric, and sorting keeps it independent of how arrivals split
  // across shard logs.
  const auto sweep = [&] {
    sched.refresh_telemetry(network.channel_block_ns());
    for (const auto& log : logs) {
      for (std::size_t i : log->arrivals) {
        if (--remaining[i] > 0) continue;
        const MsgPlan& m = plans[i];
        --st[m.op].undone[m.phase];
        touched.push_back(m.op);
      }
      log->arrivals.clear();
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (std::size_t op : touched) {
      OpState& s = st[op];
      if (s.phase1_launched && s.undone[0] == 0 && s.undone[1] == 0) {
        sched.release(op_foot[op]);
      }
    }
    // A phase 1 without destinations has nothing to count down: its op
    // comes back at the next sweep, which releases it.
    carried.clear();
    for (std::size_t op : touched) {
      OpState& s = st[op];
      if (s.phase1_launched || s.undone[0] != 0) continue;
      for (std::size_t i : op_msgs1[op]) launch_msg(i);
      s.phase1_launched = true;
      --awaiting_phase1;
      if (s.undone[1] == 0) carried.push_back(op);
    }
    touched.swap(carried);
  };

  const auto admit_op = [&](std::size_t op, sim::Time at) {
    sched.admit(op_foot[op]);
    OpState& s = st[op];
    s.admitted_at = at;
    s.phase1_launched = op_msgs1[op].empty();
    if (!s.phase1_launched) ++awaiting_phase1;
    for (std::size_t i : op_msgs0[op]) launch_msg(i);
  };

  // The tick chain runs only while it has something to drive: a deferred
  // op waiting for capacity, or an admitted compound op whose second
  // phase still needs launching. Identical under both policies when no
  // deferral happens, which makes pacing byte-identical to the FIFO
  // baseline at single-group offered load.
  const auto need_ticks = [&] {
    return !deferred.empty() || awaiting_phase1 > 0;
  };

  // Coordination keys: one per arrival in op order, the tick chain's
  // last — matching sharded registration order (arrivals register at
  // setup, ticks during the run), so same-instant arrival-before-tick
  // ordering agrees between the engines.
  std::vector<std::uint64_t> arrival_keys(num_ops, 0);
  for (std::size_t op = 0; op < num_ops; ++op) {
    arrival_keys[op] = fabric.reserve_coordination_key();
  }
  const std::uint64_t tick_key = fabric.reserve_coordination_key();

  std::function<void()> tick_fn;
  const auto ensure_tick = [&](sim::Time now) {
    if (tick_active || !need_ticks()) return;
    tick_active = true;
    next_tick = now + scfg.tick;
    fabric.schedule_coordinated(next_tick, tick_key, tick_fn);
  };
  tick_fn = [&] {
    tick_active = false;
    ++ticks;
    sweep();
    std::vector<std::size_t> still;
    for (std::size_t op : deferred) {
      if (sched.would_admit(op_foot[op], st[op].waited)) {
        admit_op(op, next_tick);
      } else {
        ++st[op].waited;
        still.push_back(op);
      }
    }
    deferred = std::move(still);
    if (need_ticks()) {
      tick_active = true;
      next_tick = next_tick + scfg.tick;
      fabric.schedule_coordinated(next_tick, tick_key, tick_fn);
    }
  };

  for (std::size_t op = 0; op < num_ops; ++op) {
    const sim::Time at = workload.ops[op].arrival;
    fabric.schedule_coordinated(at, arrival_keys[op], [&, op, at] {
      sweep();
      const bool now_ok =
          scfg.policy == Policy::kFifo ||
          (deferred.empty() && sched.would_admit(op_foot[op], 0));
      if (now_ok) {
        admit_op(op, at);
      } else {
        deferred.push_back(op);
      }
      ensure_tick(at);
    });
  }

  fabric.run(config_.shard_threads);
  if (network.in_flight() != 0) {
    throw std::runtime_error(
        "TrafficEngine: network deadlock (worms still in flight)");
  }

  // Merge the per-shard completion logs into one total order. Keys
  // (time, host, message) are unique, so the sort is engine- and
  // thread-count-independent.
  std::vector<std::tuple<std::size_t, topo::HostId, sim::Time>> host_all;
  for (const auto& log : logs) {
    host_all.insert(host_all.end(), log->host_done.begin(),
                    log->host_done.end());
  }
  std::sort(host_all.begin(), host_all.end(),
            [](const auto& a, const auto& b) {
              return std::make_tuple(std::get<2>(a), std::get<1>(a),
                                     std::get<0>(a)) <
                     std::make_tuple(std::get<2>(b), std::get<1>(b),
                                     std::get<0>(b));
            });

  std::vector<std::int32_t> msg_completions(plans.size(), 0);
  std::vector<sim::Time> msg_last(plans.size());
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  const auto fnv = [&digest](std::uint64_t v) {
    for (std::int32_t b = 0; b < 64; b += 8) {
      digest ^= (v >> b) & 0xffu;
      digest *= 1099511628211ull;  // FNV-1a prime
    }
  };
  for (const auto& [mi, h, t] : host_all) {
    ++msg_completions[mi];
    msg_last[mi] = std::max(msg_last[mi], t);
    fnv(static_cast<std::uint64_t>(t.count_ns()));
    fnv(static_cast<std::uint64_t>(h));
    fnv(static_cast<std::uint64_t>(mi));
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (msg_completions[i] != plans[i].expected) {
      throw std::runtime_error(
          "TrafficEngine: message " + std::to_string(i + 1) + " completed " +
          std::to_string(msg_completions[i]) + "/" +
          std::to_string(plans[i].expected) + " destinations");
    }
  }

  TrafficResult result;
  result.ops.resize(num_ops);
  sim::Time last_completion;
  std::int64_t total_deferrals = 0;
  for (std::size_t op = 0; op < num_ops; ++op) {
    const TrafficOp& o = workload.ops[op];
    OpRecord& rec = result.ops[op];
    rec.cls = o.cls;
    rec.arrival = o.arrival;
    rec.admitted = st[op].admitted_at;
    rec.group = o.group_size();
    rec.packets = o.packets;
    rec.churn = o.churn;
    rec.deferral_ticks = st[op].waited;
    total_deferrals += st[op].waited;
    for (const auto& msgs : {op_msgs0[op], op_msgs1[op]}) {
      for (std::size_t i : msgs) {
        rec.completed = std::max(rec.completed, msg_last[i]);
        rec.packets_delivered += static_cast<std::int64_t>(plans[i].expected) *
                                 plans[i].packets;
      }
    }
    result.packets_delivered += rec.packets_delivered;
    last_completion = std::max(last_completion, rec.completed);
  }
  result.makespan = last_completion - workload.ops.front().arrival;
  result.deferral_ticks = total_deferrals;
  result.ticks = ticks;
  if (result.makespan > sim::Time::zero()) {
    result.ops_per_sec = static_cast<double>(num_ops) /
                         (result.makespan.as_us() * 1.0e-6);
    const double flits =
        static_cast<double>(result.packets_delivered) *
        (static_cast<double>(config_.network.packet_bytes) / 8.0);
    result.flits_per_us = flits / result.makespan.as_us();
  }
  result.total_channel_block_time = network.total_block_time();
  result.events_dispatched = fabric.events_dispatched();
  result.shards_used = fabric.num_shards();
  result.window_ns = window.count_ns();
  result.barrier_wall_ns = fabric.barrier_wall_ns();
  result.windows_planned = fabric.windows_planned();
  result.digest = digest;
  return result;
}

}  // namespace nimcast::traffic
