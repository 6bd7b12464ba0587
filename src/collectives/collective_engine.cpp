#include "collectives/collective_engine.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "mcast/fabric.hpp"
#include "mcast/tree_repair.hpp"
#include "netif/buffer_tracker.hpp"
#include "netif/host.hpp"
#include "netif/serial_server.hpp"
#include "network/wormhole_network.hpp"
#include "routing/repair.hpp"
#include "sim/simulator.hpp"

namespace nimcast::collectives {

const char* to_string(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::kBroadcast: return "broadcast";
    case CollectiveKind::kScatter: return "scatter";
    case CollectiveKind::kGather: return "gather";
    case CollectiveKind::kReduce: return "reduce";
    case CollectiveKind::kAllReduce: return "allreduce";
  }
  return "?";
}

const char* to_string(RepairMode m) {
  switch (m) {
    case RepairMode::kFailFast: return "fail-fast";
    case RepairMode::kDegradeAndContinue: return "degrade-and-continue";
  }
  return "?";
}

std::int32_t CollectiveResult::delivered_count() const {
  std::int32_t n = 0;
  for (const auto& p : participants) n += p.delivered ? 1 : 0;
  return n;
}

double CollectiveResult::delivery_ratio() const {
  if (participants.empty()) return 1.0;
  return static_cast<double>(delivered_count()) /
         static_cast<double>(participants.size());
}

std::vector<topo::HostId> CollectiveResult::survivors() const {
  std::vector<topo::HostId> out;
  for (const auto& p : participants) {
    if (p.reachable) out.push_back(p.host);
  }
  return out;
}

namespace {

constexpr net::MessageId kMessage = 1;
/// Packet tag values for reduce/allreduce phases; scatter/gather store a
/// host id (>= 0) in the tag instead.
constexpr std::int32_t kUpPhase = -2;
constexpr std::int32_t kDownPhase = -3;

/// Collective firmware model: one per participating host (and one per
/// repair round the host takes part in — each round rebinds a fresh
/// instance). Mirrors the structure of netif::NetworkInterface
/// (coprocessor SerialServer, t_rcv receive processing in the
/// low-priority lane, t_snd per injected copy) but speaks the collective
/// protocols instead of plain multicast forwarding. Receive processing
/// and sends are typed coprocessor jobs (kReceive, kInject) dispatched
/// by run_job; a reduce fold is a continuation.
class CollectiveNi final : public net::DeliverySink, private netif::JobRunner {
 public:
  CollectiveNi(sim::Simulator& simctx, net::WormholeNetwork& network,
               const CollectiveEngine::Config& cfg, CollectiveKind kind,
               topo::HostId self, topo::HostId parent,
               std::vector<topo::HostId> children, std::int32_t m,
               sim::Trace* trace)
      : sim_{simctx},
        network_{network},
        cfg_{cfg},
        kind_{kind},
        self_{self},
        parent_{parent},
        children_{std::move(children)},
        m_{m},
        trace_{trace},
        coproc_{simctx, cfg.params.ni_engines, this},
        buffer_{simctx},
        child_folded_(children_.size(), 0) {
    network.bind_sink(self, this);
  }

  void on_packet_delivered(const net::Packet& packet) override {
    deliver(packet);
  }

  /// Fired when this NI's role in the collective is fulfilled (before
  /// the host's t_r).
  std::function<void(topo::HostId)> on_complete;
  /// Gather root only: fired when one source's full m-packet message has
  /// arrived (fault accounting — the root may gather some sources and
  /// lose others).
  std::function<void(topo::HostId)> on_source_complete;
  /// Scatter: next tree hop per final destination.
  std::unordered_map<topo::HostId, topo::HostId> next_hop;
  /// Gather/reduce: number of direct children (reduce) or subtree
  /// descendants (gather) feeding this node.
  std::int32_t subtree_below = 0;

  /// Reduce/allreduce: direct children whose every up-phase packet has
  /// folded into this node's partial — their whole subtree's contribution
  /// is in. The root queries this after an incomplete round to salvage
  /// already-folded subtrees instead of restarting the reduce from
  /// scratch.
  [[nodiscard]] std::vector<topo::HostId> fully_folded_children() const {
    std::vector<topo::HostId> out;
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (child_folded_[i] == m_) out.push_back(children_[i]);
    }
    return out;
  }

  [[nodiscard]] const netif::BufferTracker& buffer() const { return buffer_; }

  /// Source-side start, called after the host's t_s.
  void start() {
    switch (kind_) {
      case CollectiveKind::kBroadcast:
        // Packet-major FPFS over the children.
        for (std::int32_t j = 0; j < m_; ++j) {
          for (topo::HostId c : children_) send(c, j, kDownPhase);
        }
        break;
      case CollectiveKind::kScatter: {
        // Packet-major across destinations in chain order: packet 0 of
        // every destination first, then packet 1, ... — keeps every
        // subtree's pipeline fed (the FPFS principle applied to
        // personalized data).
        std::vector<topo::HostId> dests;
        for (const auto& [dest, hop] : next_hop) dests.push_back(dest);
        std::sort(dests.begin(), dests.end());
        for (std::int32_t j = 0; j < m_; ++j) {
          for (topo::HostId dest : dests) send(next_hop.at(dest), j, dest);
        }
        break;
      }
      case CollectiveKind::kGather:
        // Non-root nodes push their own message toward the root.
        if (parent_ != topo::kInvalidId) {
          for (std::int32_t j = 0; j < m_; ++j) send(parent_, j, self_);
        }
        break;
      case CollectiveKind::kReduce:
      case CollectiveKind::kAllReduce:
        // Leaves stream their contribution up; interior nodes hold
        // theirs as the initial partial result and wait for children.
        if (children_.empty() && parent_ != topo::kInvalidId) {
          for (std::int32_t j = 0; j < m_; ++j) send(parent_, j, kUpPhase);
        }
        break;
    }
  }

  void deliver(const net::Packet& packet) {
    buffer_.acquire();
    netif::Job job;
    job.duration = cfg_.params.t_rcv;
    job.kind = netif::JobKind::kReceive;
    job.packet = packet;
    coproc_.enqueue_low(job);
  }

 private:
  void run_job(const netif::Job& job) override {
    if (job.kind == netif::JobKind::kReceive) {
      handle(job.packet);
      return;
    }
    const net::Packet& p = job.packet;  // kInject
    network_.send(p);
    if (trace_) {
      trace_->record(sim_.now(), sim::TraceCategory::kNi, self_,
                     "coll send pkt=" + std::to_string(p.packet_index) +
                         " tag=" + std::to_string(p.tag) + " -> host " +
                         std::to_string(p.dest));
    }
  }

  void send(topo::HostId to, std::int32_t index, std::int32_t tag) {
    netif::Job job;
    job.duration = cfg_.params.t_snd;
    job.kind = netif::JobKind::kInject;
    job.packet.message = kMessage;
    job.packet.packet_index = index;
    job.packet.packet_count = m_;
    job.packet.sender = self_;
    job.packet.dest = to;
    job.packet.tag = tag;
    coproc_.enqueue(job);
  }

  void complete() {
    if (done_) throw std::logic_error("CollectiveNi: completed twice");
    done_ = true;
    if (on_complete) on_complete(self_);
  }

  void handle(const net::Packet& packet) {
    buffer_.release();
    switch (kind_) {
      case CollectiveKind::kBroadcast:
        for (topo::HostId c : children_) {
          send(c, packet.packet_index, kDownPhase);
        }
        if (++own_received_ == m_) complete();
        break;

      case CollectiveKind::kScatter:
        if (packet.tag == self_) {
          if (++own_received_ == m_) complete();
        } else {
          send(next_hop.at(packet.tag), packet.packet_index, packet.tag);
        }
        break;

      case CollectiveKind::kGather:
        if (parent_ == topo::kInvalidId) {
          // Root: per-source accounting (a faulty fabric may gather some
          // sources whole and lose others); done once every descendant's
          // full message is in.
          const auto src = static_cast<std::size_t>(packet.tag);
          if (src >= source_received_.size()) {
            source_received_.resize(src + 1, 0);
          }
          if (++source_received_[src] == m_ && on_source_complete) {
            on_source_complete(static_cast<topo::HostId>(packet.tag));
          }
          if (++own_received_ == subtree_below * m_) complete();
        } else {
          send(parent_, packet.packet_index, packet.tag);
        }
        break;

      case CollectiveKind::kReduce:
      case CollectiveKind::kAllReduce:
        if (packet.tag == kUpPhase) {
          handle_up(packet.sender, packet.packet_index);
        } else {
          // Down phase (allreduce only): plain broadcast forwarding.
          for (topo::HostId c : children_) {
            send(c, packet.packet_index, kDownPhase);
          }
          if (++own_received_ == m_) complete();
        }
        break;
    }
  }

  /// Reduce up-phase: fold one child packet into the local partial
  /// result (t_comb of coprocessor time); when every child's j-th packet
  /// is folded, index j is ready to move up (or, at the root, is final).
  void handle_up(topo::HostId from, std::int32_t index) {
    coproc_.enqueue(cfg_.t_comb, [this, from, index] {
      // A stale packet of an earlier round may come from a non-child.
      const auto child = std::find(children_.begin(), children_.end(), from);
      if (child != children_.end()) {
        ++child_folded_[static_cast<std::size_t>(child - children_.begin())];
      }
      if (folded_.empty()) folded_.assign(static_cast<std::size_t>(m_), 0);
      const std::int32_t folded = ++folded_[static_cast<std::size_t>(index)];
      if (folded < static_cast<std::int32_t>(children_.size())) return;
      if (parent_ != topo::kInvalidId) {
        send(parent_, index, kUpPhase);
      } else {
        if (kind_ == CollectiveKind::kAllReduce) {
          // Pipeline the finished index straight back down; the root
          // itself holds the full result once every index has folded.
          for (topo::HostId c : children_) send(c, index, kDownPhase);
        }
        if (++reduced_indexes_ == m_) complete();
      }
    });
  }

  sim::Simulator& sim_;
  net::WormholeNetwork& network_;
  const CollectiveEngine::Config& cfg_;
  CollectiveKind kind_;
  topo::HostId self_;
  topo::HostId parent_;
  std::vector<topo::HostId> children_;
  std::int32_t m_;
  sim::Trace* trace_;
  netif::SerialServer coproc_;
  netif::BufferTracker buffer_;

  std::int32_t own_received_ = 0;
  /// Reduce: per packet index, children folded; per child (in
  /// children_ order), packets folded. Gather root: per source host,
  /// packets received.
  std::vector<std::int32_t> folded_;
  std::vector<std::int32_t> child_folded_;
  std::vector<std::int32_t> source_received_;
  std::int32_t reduced_indexes_ = 0;
  bool done_ = false;
};

}  // namespace

CollectiveEngine::CollectiveEngine(const topo::Topology& topology,
                                   const routing::RouteTable& routes,
                                   Config config, sim::Trace* trace)
    : topology_{topology}, routes_{routes}, config_{config}, trace_{trace} {}

CollectiveResult CollectiveEngine::run(CollectiveKind kind,
                                       const core::HostTree& tree,
                                       std::int32_t m) const {
  if (m < 1) throw std::invalid_argument("CollectiveEngine::run: m < 1");
  if (tree.size() < 2) {
    throw std::invalid_argument("CollectiveEngine::run: need >= 2 nodes");
  }
  for (topo::HostId h : tree.nodes) {
    if (h < 0 || h >= topology_.num_hosts()) {
      throw std::invalid_argument("CollectiveEngine::run: host out of range");
    }
  }

  const bool faulty = !config_.network.faults.empty();
  const topo::HostId root = tree.root;

  sim::Simulator simctx;
  net::WormholeNetwork network{simctx, topology_, routes_, config_.network,
                               trace_};

  // Fault-time route repair, identical to the multicast engine's: rebuild
  // up*/down* on the surviving subgraph and rebind on *every* switch-graph
  // fault event — kLinkUp recoveries included, each with a fresh epoch.
  // kHostDown leaves the switch graph intact, so no rebuild. Multi-VC
  // tables (dateline tori) cannot be rebuilt — fail loudly rather than
  // silently running stale.
  std::vector<std::unique_ptr<routing::RouteTable>> repaired_tables;
  if (faulty && config_.repair.reroute) {
    if (routes_.virtual_channels() != 1) {
      throw std::invalid_argument(
          "CollectiveEngine: fault-time reroute cannot rebuild a multi-VC "
          "route table (dateline torus); set RepairPolicy::reroute = false "
          "to run degraded on the original routes");
    }
    network.on_fault = [&](const net::FaultEvent& ev) {
      if (ev.kind == net::FaultKind::kHostDown) return;
      auto table = routing::rebuild_updown(
          topology_, network.fault_state(),
          static_cast<std::int32_t>(repaired_tables.size()) + 1);
      network.rebind_routes(*table);
      repaired_tables.push_back(std::move(table));
    };
  }

  CollectiveResult result;

  // Cross-round fault bookkeeping. `completed` is the per-host semantic
  // marker (own message in / holds the result); `gathered` maps a gather
  // source to the instant its full message reached the round root;
  // `root_done` means a round root finished combining (reduce/allreduce
  // up phase), and `contributors` is the union of the achieving round's
  // up-phase participants and everything salvaged from earlier rounds —
  // the reduce-correctness accounting. `eff_root` is the initiator in
  // force: the tree's root until it dies and RepairPolicy::root_handoff
  // elects a replacement. `salvaged` accumulates hosts whose reduce
  // contribution already folded into the live root's partial (they are
  // not re-run); `root_ni`/`root_subtrees` expose the latest up-phase
  // round's root firmware and its per-child subtree membership, which is
  // what the salvage computation reads.
  std::vector<std::unique_ptr<CollectiveNi>> arena;
  mcast::PerHost<netif::Host> hosts{topology_.num_hosts()};
  std::unordered_set<topo::HostId> completed;
  std::unordered_map<topo::HostId, sim::Time> gathered;
  bool root_done = false;
  std::vector<topo::HostId> up_nodes;
  std::vector<topo::HostId> contributors;
  topo::HostId eff_root = root;
  std::unordered_set<topo::HostId> salvaged;
  CollectiveNi* root_ni = nullptr;
  std::unordered_map<topo::HostId, std::vector<topo::HostId>> root_subtrees;

  // Builds fresh per-round firmware over `t`, rebinding the network
  // sinks of every participant, and schedules the round's start-up
  // (immediately for the initial attempt, at `start` for repair rounds).
  const auto launch = [&](const core::HostTree& t, CollectiveKind kind2,
                          sim::Time start) {
    // Parents and subtree structure from the round's tree.
    std::unordered_map<topo::HostId, topo::HostId> parent;
    parent[t.root] = topo::kInvalidId;
    for (const auto& [v, kids] : t.children) {
      for (topo::HostId c : kids) parent[c] = v;
    }

    // Subtree membership for scatter next-hop and gather counting:
    // post-order accumulation via reverse BFS.
    std::unordered_map<topo::HostId, std::vector<topo::HostId>> subtree;
    {
      std::vector<topo::HostId> order{t.root};
      for (std::size_t i = 0; i < order.size(); ++i) {
        for (topo::HostId c : t.children.at(order[i])) order.push_back(c);
      }
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        auto& mine = subtree[*it];
        mine.push_back(*it);
        for (topo::HostId c : t.children.at(*it)) {
          const auto& sub = subtree[c];
          mine.insert(mine.end(), sub.begin(), sub.end());
        }
      }
    }

    // This round's firmware, host-indexed (the arena owns it).
    std::vector<CollectiveNi*> round_nis(
        static_cast<std::size_t>(topology_.num_hosts()), nullptr);
    const auto nis = [&round_nis](topo::HostId h) -> CollectiveNi& {
      return *round_nis[static_cast<std::size_t>(h)];
    };
    for (topo::HostId h : t.nodes) {
      arena.push_back(std::make_unique<CollectiveNi>(
          simctx, network, config_, kind2, h, parent.at(h), t.children.at(h),
          m, trace_));
      round_nis[static_cast<std::size_t>(h)] = arena.back().get();
      if (!hosts.contains(h)) {
        hosts.emplace(h,
                      std::make_unique<netif::Host>(simctx, h, config_.params));
      }
    }
    for (topo::HostId h : t.nodes) {
      auto& ni = nis(h);
      ni.subtree_below = static_cast<std::int32_t>(subtree.at(h).size()) - 1;
      for (topo::HostId c : t.children.at(h)) {
        for (topo::HostId d : subtree.at(c)) ni.next_hop.emplace(d, c);
      }
    }

    const bool up_kind = kind2 == CollectiveKind::kReduce ||
                         kind2 == CollectiveKind::kAllReduce;
    const topo::HostId round_root = t.root;
    if (up_kind) {
      up_nodes = t.nodes;
      root_ni = &nis(round_root);
      root_subtrees.clear();
      for (topo::HostId c : t.children.at(round_root)) {
        root_subtrees.emplace(c, subtree.at(c));
      }
    }
    for (topo::HostId h : t.nodes) {
      auto& ni = nis(h);
      ni.on_complete = [&, h, up_kind, round_root](topo::HostId) {
        if (up_kind && h == round_root && !root_done) {
          root_done = true;
          // The achieving round's participants plus everything salvaged
          // from earlier rounds, in original tree order.
          std::unordered_set<topo::HostId> cset{up_nodes.begin(),
                                                up_nodes.end()};
          cset.insert(salvaged.begin(), salvaged.end());
          contributors.clear();
          for (topo::HostId x : tree.nodes) {
            if (cset.count(x) != 0) contributors.push_back(x);
          }
        }
        // A host keeps one semantic completion across repair rounds.
        if (!completed.insert(h).second) return;
        hosts[h].software_receive(
            [&, h] { result.completions.emplace_back(h, simctx.now()); });
      };
      if (kind2 == CollectiveKind::kGather && h == round_root) {
        ni.on_source_complete = [&](topo::HostId src) {
          gathered.emplace(src, simctx.now());
        };
      }
    }

    // Start-up: who pays t_s before their NI acts.
    const auto start_host = [&nis, &hosts](topo::HostId h) {
      CollectiveNi* ni = &nis(h);
      hosts[h].software_send([ni] { ni->start(); });
    };
    const auto start_all = [&] {
      switch (kind2) {
        case CollectiveKind::kBroadcast:
        case CollectiveKind::kScatter:
          start_host(t.root);
          break;
        case CollectiveKind::kGather:
          for (topo::HostId h : t.nodes) {
            if (h != t.root) start_host(h);
          }
          break;
        case CollectiveKind::kReduce:
        case CollectiveKind::kAllReduce:
          // Everyone contributes data: every host pays the send start-up
          // (the root's moves its own partial result to the NI).
          for (topo::HostId h : t.nodes) start_host(h);
          break;
      }
    };
    if (start == sim::Time::zero()) {
      start_all();
    } else {
      // Repair rounds start after the backoff; the starters capture the
      // round's NI pointers, which outlive the run in `arena`.
      std::vector<topo::HostId> starters;
      switch (kind2) {
        case CollectiveKind::kBroadcast:
        case CollectiveKind::kScatter:
          starters.push_back(t.root);
          break;
        case CollectiveKind::kGather:
          for (topo::HostId h : t.nodes) {
            if (h != t.root) starters.push_back(h);
          }
          break;
        case CollectiveKind::kReduce:
        case CollectiveKind::kAllReduce:
          starters = t.nodes;
          break;
      }
      for (topo::HostId h : starters) {
        CollectiveNi* ni = &nis(h);
        netif::Host* host = &hosts[h];
        simctx.schedule_at(
            start, [ni, host] { host->software_send([ni] { ni->start(); }); });
      }
    }
  };

  const auto check_drained = [&] {
    if (network.in_flight() != 0) {
      throw std::runtime_error("CollectiveEngine: network deadlock");
    }
  };

  const auto n_participants = static_cast<std::size_t>(tree.size()) - 1;
  const auto op_complete = [&]() -> bool {
    switch (kind) {
      case CollectiveKind::kBroadcast:
      case CollectiveKind::kScatter:
        return completed.size() == n_participants;
      case CollectiveKind::kGather:
        return gathered.size() == n_participants;
      case CollectiveKind::kReduce:
        return root_done;
      case CollectiveKind::kAllReduce:
        return root_done && completed.size() == n_participants + 1;
    }
    return false;
  };

  launch(tree, kind, sim::Time::zero());
  simctx.run();
  check_drained();

  if (!faulty && !op_complete()) {
    throw std::runtime_error("CollectiveEngine: " +
                             std::string(to_string(kind)) +
                             " did not complete everywhere");
  }
  if (faulty && config_.mode == RepairMode::kFailFast && !op_complete()) {
    throw std::runtime_error("CollectiveEngine: " +
                             std::string(to_string(kind)) +
                             " incomplete under faults (fail-fast)");
  }

  // Tree repair: re-parent the still-needy, still-reachable participants
  // into a fresh k-binomial tree in contention-free order (the shared
  // mcast::plan_repair_tree) and re-run. Broadcast/scatter/gather rounds
  // resend only what is missing; a reduce round re-folds only the missing
  // contributors — subtrees whose up-phase packets all reached the live
  // root are salvaged from its partial; an allreduce with a complete up
  // phase but lost down-phase deliveries re-broadcasts the root's result
  // to whoever missed it. When the initiator itself died,
  // RepairPolicy::root_handoff elects the lowest-ranked (tree-order)
  // alive participant that still holds what the round must send — any
  // result holder for broadcast and post-up-phase allreduce, any
  // survivor for gather/reduce (each holds its own contribution) — and
  // re-roots the repair there. Scatter never hands off: the personalized
  // payloads died with the root.
  if (faulty && config_.mode == RepairMode::kDegradeAndContinue &&
      config_.repair.max_attempts > 0) {
    // Folds the root-side salvage state into `salvaged`: the live round
    // root's own contribution plus every subtree whose up-phase packets
    // all folded into its partial.
    const auto salvage = [&] {
      salvaged.insert(eff_root);
      if (root_ni == nullptr) return;
      for (topo::HostId c : root_ni->fully_folded_children()) {
        for (topo::HostId d : root_subtrees.at(c)) salvaged.insert(d);
      }
    };
    for (std::int32_t round = 1; round <= config_.repair.max_attempts;
         ++round) {
      if (op_complete()) break;
      if (!network.host_alive(eff_root)) {
        if (!config_.repair.root_handoff || kind == CollectiveKind::kScatter) {
          break;
        }
        // Election is deterministic and happens at most once per run:
        // every fault event fires during the first drain, so liveness is
        // stable by the time repair begins.
        const bool need_result_holder =
            kind == CollectiveKind::kBroadcast ||
            (kind == CollectiveKind::kAllReduce && root_done);
        topo::HostId elected = topo::kInvalidId;
        for (topo::HostId h : tree.nodes) {
          if (h == eff_root || !network.host_alive(h)) continue;
          if (need_result_holder && completed.count(h) == 0) continue;
          elected = h;
          break;
        }
        if (elected == topo::kInvalidId) break;  // payload died with the root
        eff_root = elected;
        ++result.root_handoffs;
        if (kind == CollectiveKind::kGather) {
          // The partially gathered data died with the old root; sources
          // re-send everything to the replacement, whose own message is
          // already local.
          gathered.clear();
          gathered.emplace(eff_root, simctx.now());
        }
        if (kind == CollectiveKind::kReduce ||
            (kind == CollectiveKind::kAllReduce && !root_done)) {
          // The old root's partial died with it: nothing is salvaged.
          salvaged.clear();
          root_ni = nullptr;
        }
      }
      CollectiveKind round_kind = kind;
      std::function<bool(topo::HostId)> needs;
      switch (kind) {
        case CollectiveKind::kBroadcast:
        case CollectiveKind::kScatter:
          needs = [&](topo::HostId h) { return completed.count(h) == 0; };
          break;
        case CollectiveKind::kGather:
          needs = [&](topo::HostId h) { return gathered.count(h) == 0; };
          break;
        case CollectiveKind::kReduce:
          salvage();
          needs = [&](topo::HostId h) { return salvaged.count(h) == 0; };
          break;
        case CollectiveKind::kAllReduce:
          if (root_done) {
            round_kind = CollectiveKind::kBroadcast;
            needs = [&](topo::HostId h) { return completed.count(h) == 0; };
          } else {
            salvage();
            needs = [&](topo::HostId h) { return salvaged.count(h) == 0; };
          }
          break;
      }
      const auto rtree = mcast::plan_repair_tree(
          eff_root, tree.nodes, needs,
          [&](topo::HostId h) { return network.reachable(eff_root, h); },
          tree.root_children());
      if (!rtree) break;
      ++result.repairs;
      const sim::Time wait =
          config_.repair.backoff * (sim::Time::rep{1} << (round - 1));
      launch(*rtree, round_kind, simctx.now() + wait);
      simctx.run();
      check_drained();
    }
  }

  for (const auto& [h, t] : result.completions) {
    result.latency = std::max(result.latency, t);
  }
  for (const auto& ni : arena) {
    result.peak_ni_buffer = std::max(result.peak_ni_buffer,
                                     ni->buffer().peak());
  }
  result.packets_injected = network.packets_delivered();
  result.total_channel_block_time = network.total_block_time();

  result.effective_root = eff_root;
  if (faulty) {
    result.root_alive = network.host_alive(eff_root);
    result.faults_applied = network.faults_applied();
    result.route_epoch = network.routes().epoch();
    result.contributors = contributors;
    sim::Time root_completed_at;
    for (const auto& [h, t] : result.completions) {
      if (h == eff_root) root_completed_at = t;
    }
    const std::unordered_set<topo::HostId> contrib_set{contributors.begin(),
                                                       contributors.end()};
    for (topo::HostId h : tree.nodes) {
      if (h == root) continue;
      mcast::DestinationStatus st;
      st.host = h;
      st.reachable = network.reachable(eff_root, h);
      switch (kind) {
        case CollectiveKind::kBroadcast:
        case CollectiveKind::kScatter:
        case CollectiveKind::kAllReduce:
          st.delivered = completed.count(h) != 0;
          break;
        case CollectiveKind::kGather:
          if (auto it = gathered.find(h); it != gathered.end()) {
            st.delivered = true;
            st.completed_at = it->second;
          }
          break;
        case CollectiveKind::kReduce:
          // Contribution folded into the root's final result; stamped
          // with the root's completion since folds are unattributable.
          st.delivered = root_done && contrib_set.count(h) != 0;
          st.completed_at = root_completed_at;
          break;
      }
      result.participants.push_back(st);
    }
    if (kind == CollectiveKind::kBroadcast ||
        kind == CollectiveKind::kScatter ||
        kind == CollectiveKind::kAllReduce) {
      std::unordered_map<topo::HostId, sim::Time> done;
      for (const auto& [h, t] : result.completions) done.emplace(h, t);
      for (auto& st : result.participants) {
        if (auto it = done.find(st.host); it != done.end()) {
          st.completed_at = it->second;
        }
      }
    }
    const auto delivered = static_cast<std::size_t>(result.delivered_count());
    result.outcome = delivered == n_participants
                         ? mcast::Outcome::kComplete
                         : (delivered == 0 ? mcast::Outcome::kFailed
                                           : mcast::Outcome::kPartial);
  }
  return result;
}

}  // namespace nimcast::collectives
