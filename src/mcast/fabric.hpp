#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "network/network_config.hpp"
#include "network/wormhole_network.hpp"
#include "routing/route_table.hpp"
#include "sim/sharded.hpp"
#include "sim/sim_time.hpp"
#include "sim/trace.hpp"
#include "topology/topology.hpp"

namespace nimcast::mcast {

/// A run's per-host objects (NIs, hosts), indexed by host id: a flat
/// array of owners, null for hosts that take no part.
template <typename T>
class PerHost {
 public:
  explicit PerHost(std::int32_t num_hosts)
      : items_(static_cast<std::size_t>(num_hosts)) {}

  void emplace(topo::HostId h, std::unique_ptr<T> item) {
    items_[index(h)] = std::move(item);
  }
  [[nodiscard]] bool contains(topo::HostId h) const {
    return items_[index(h)] != nullptr;
  }
  /// The object of host `h`, which must take part.
  [[nodiscard]] T& operator[](topo::HostId h) const {
    return *items_[index(h)];
  }
  /// Calls `f(host, object)` for every present host, in host order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t h = 0; h < items_.size(); ++h) {
      if (items_[h]) f(static_cast<topo::HostId>(h), *items_[h]);
    }
  }

 private:
  static std::size_t index(topo::HostId h) {
    return static_cast<std::size_t>(h);
  }
  std::vector<std::unique_ptr<T>> items_;
};

/// One simulation fabric: the serial-or-sharded simulator plus the
/// WormholeNetwork bound to it. Extracted from MulticastEngine::run_many
/// / run_streaming so every engine entry point — and the multi-tenant
/// traffic engine, which drives many operations re-entrantly over one
/// shared network — builds and drains the fabric through the same code
/// path with the same serial-vs-sharded bit-identity contract.
///
/// The caller resolves engine selection before construction: a positive
/// `window` selects the conservative-parallel sharded engine (shards
/// clamped to the switch count), zero selects the serial engine. Use
/// `conservative_window` to derive the widest safe window for a
/// workload's longest path.
class Fabric {
 public:
  /// Conservative window for a run whose longest packet path crosses
  /// `max_hops` switch links: t_hop, tightened for pipelined release
  /// (the earliest staggered release of a (max_hops + 2)-channel worm
  /// fires serialization_time - max_hops * t_hop after its drain is
  /// scheduled, and the release mail must clear the window), further
  /// narrowed by `override_window` (zero = no override). Returns zero
  /// when no positive window exists — the caller falls back to the
  /// serial engine.
  [[nodiscard]] static sim::Time conservative_window(
      const net::NetworkConfig& network, std::size_t max_hops,
      sim::Time override_window);

  /// Builds the fabric. `window` > 0 selects the sharded engine with
  /// min(`shards`, num switches) shards partitioned by
  /// `partition_weights` (empty = unweighted); `window` == 0 selects the
  /// serial engine (the only mode that accepts a trace sink).
  Fabric(const topo::Topology& topology, const routing::RouteTable& routes,
         const net::NetworkConfig& network, std::int32_t shards,
         sim::Time window, const std::vector<std::uint64_t>& partition_weights,
         sim::Trace* trace);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] bool sharded() const { return shardsim_ != nullptr; }
  [[nodiscard]] std::int32_t num_shards() const { return num_shards_; }
  [[nodiscard]] sim::Time window() const { return window_; }
  [[nodiscard]] net::WormholeNetwork& network() { return *network_; }

  /// The simulator every per-host actor (NI, host, its timers and
  /// receive events) must live on: the shard owning the host's switch,
  /// or the one serial simulator.
  [[nodiscard]] sim::Simulator& sim_for_host(topo::HostId h);

  /// Owning shard of `h` (0 in serial mode) — the per-shard log index
  /// for append-only completion records.
  [[nodiscard]] std::int32_t shard_of_host(topo::HostId h) const;

  /// Drains the fabric to quiescence. `shard_threads` > 0 caps the OS
  /// threads driving the sharded engine (0 = one per shard); ignored in
  /// serial mode. Callable repeatedly (repair rounds schedule more work
  /// between drains).
  void run(std::int32_t shard_threads);

  /// Time of the last dispatched event — what the serial engine's now()
  /// reads once run() drains; the anchor for repair-round backoff.
  [[nodiscard]] sim::Time end_time() const;

  [[nodiscard]] std::int64_t events_dispatched() const;
  /// Sharded-engine instrumentation (zero in serial mode).
  [[nodiscard]] std::int64_t barrier_wall_ns() const;
  [[nodiscard]] std::int64_t windows_planned() const;

  /// Claims a serial FIFO key for a chain of coordinated events (0 in
  /// sharded mode, where registration order plays the same role). Keys
  /// must be reserved before run() in the order the first same-instant
  /// coordinated events will be registered, so both engines agree on
  /// same-time coordinated-event order.
  [[nodiscard]] std::uint64_t reserve_coordination_key();

  /// Schedules `fn` at `at`, firing *before* every same-instant runtime
  /// event in both engines: the sharded form rides a global event (all
  /// shards parked at the barrier, same-time shard events not yet
  /// fired), the serial form replays the reserved FIFO key. This is the
  /// one ordering a coordinator (telemetry snapshot, admission decision)
  /// may observe and mutate cross-shard state in — both engines present
  /// identical state at the instant. Work scheduled from inside `fn`
  /// lands after the instant's coordinated events and before anything
  /// the instant's runtime events schedule, identically in both modes.
  void schedule_coordinated(sim::Time at, std::uint64_t key,
                            std::function<void()> fn);

 private:
  std::unique_ptr<sim::Simulator> serial_;
  std::unique_ptr<sim::ShardedSimulator> shardsim_;
  std::unique_ptr<net::WormholeNetwork> network_;
  std::int32_t num_shards_ = 1;
  sim::Time window_;
};

}  // namespace nimcast::mcast
