#include "traffic/traffic_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/irregular.hpp"
#include "traffic/workload.hpp"

namespace nimcast::traffic {
namespace {

struct Rig {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<routing::UpDownRouter> router;
  std::unique_ptr<routing::RouteTable> routes;
  core::Chain cco;
};

Rig make_rig(std::uint64_t seed, std::int32_t hosts = 32) {
  topo::IrregularConfig cfg;
  cfg.num_hosts = hosts;
  cfg.num_switches = hosts / 4;
  sim::Rng rng{seed};
  Rig rig;
  rig.topology =
      std::make_unique<topo::Topology>(topo::make_irregular(cfg, rng));
  rig.router =
      std::make_unique<routing::UpDownRouter>(rig.topology->switches());
  rig.routes =
      std::make_unique<routing::RouteTable>(*rig.topology, *rig.router);
  rig.cco = core::cco_ordering(*rig.topology, *rig.router);
  return rig;
}

TrafficConfig engine_config(Policy policy, std::int32_t shards = 1) {
  TrafficConfig cfg;
  cfg.scheduler.policy = policy;
  cfg.shards = shards;
  return cfg;
}

WorkloadConfig mix_config(double ops_per_ms, std::int32_t num_ops = 16) {
  WorkloadConfig cfg;
  cfg.num_ops = num_ops;
  cfg.ops_per_ms = ops_per_ms;
  cfg.min_group = 3;
  cfg.max_group = 10;
  cfg.seed = 23;
  return cfg;
}

void expect_same_result(const TrafficResult& a, const TrafficResult& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.deferral_ticks, b.deferral_ticks);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].admitted, b.ops[i].admitted) << "op " << i;
    EXPECT_EQ(a.ops[i].completed, b.ops[i].completed) << "op " << i;
    EXPECT_EQ(a.ops[i].deferral_ticks, b.ops[i].deferral_ticks) << "op " << i;
  }
}

TEST(TrafficEngine, RunsAMixedWorkloadToCompletion) {
  const Rig rig = make_rig(3);
  WorkloadConfig wcfg = mix_config(5.0, 20);
  wcfg.churn_probability = 1.0;
  const Workload wl = generate_workload(32, rig.cco, wcfg);
  const TrafficEngine engine{*rig.topology, *rig.routes,
                             engine_config(Policy::kPaced)};
  const TrafficResult r = engine.run(wl);
  ASSERT_EQ(r.ops.size(), wl.ops.size());
  EXPECT_GT(r.makespan, sim::Time::zero());
  EXPECT_GT(r.ops_per_sec, 0.0);
  EXPECT_GT(r.flits_per_us, 0.0);
  EXPECT_NE(r.digest, 0u);
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    const OpRecord& rec = r.ops[i];
    EXPECT_GE(rec.admitted, rec.arrival) << "op " << i;
    EXPECT_GT(rec.completed, rec.admitted) << "op " << i;
    EXPECT_GT(rec.packets_delivered, 0) << "op " << i;
  }
}

TEST(TrafficEngine, ChurnDeliversPrefixPlusRebindSuffix) {
  const Rig rig = make_rig(7);
  WorkloadConfig wcfg = mix_config(2.0, 24);
  wcfg.stream_fraction = 0.7;
  wcfg.collective_fraction = 0.1;
  wcfg.churn_probability = 1.0;
  const Workload wl = generate_workload(32, rig.cco, wcfg);
  ASSERT_GT(wl.churns, 0);
  const TrafficEngine engine{*rig.topology, *rig.routes,
                             engine_config(Policy::kFifo)};
  const TrafficResult r = engine.run(wl);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < wl.ops.size(); ++i) {
    const TrafficOp& op = wl.ops[i];
    std::int64_t expect = 0;
    if (op.churn) {
      // The leaver receives only the prefix, the joiner only the suffix.
      expect = static_cast<std::int64_t>(op.tree.size() - 1) * op.split +
               static_cast<std::int64_t>(op.tree2.size() - 1) *
                   (op.packets - op.split);
    } else if (op.cls == OpClass::kCollective) {
      // Gather legs (one per member) plus the broadcast back down.
      expect = static_cast<std::int64_t>(op.tree.size() - 1) * op.packets * 2;
    } else {
      expect = static_cast<std::int64_t>(op.tree.size() - 1) * op.packets;
    }
    EXPECT_EQ(r.ops[i].packets_delivered, expect) << "op " << i;
    total += expect;
  }
  EXPECT_EQ(r.packets_delivered, total);
}

TEST(TrafficEngine, PacedIsByteIdenticalToFifoAtSingleGroupLoad) {
  const Rig rig = make_rig(11);
  // Offered load so low that each operation drains long before the next
  // arrives: pacing must be a strict no-op against the FIFO baseline.
  const Workload wl = generate_workload(32, rig.cco, mix_config(0.002, 8));
  const TrafficEngine fifo{*rig.topology, *rig.routes,
                           engine_config(Policy::kFifo)};
  const TrafficEngine paced{*rig.topology, *rig.routes,
                            engine_config(Policy::kPaced)};
  const TrafficResult rf = fifo.run(wl);
  const TrafficResult rp = paced.run(wl);
  EXPECT_EQ(rf.deferral_ticks, 0);
  EXPECT_EQ(rp.deferral_ticks, 0);
  EXPECT_EQ(rf.events_dispatched, rp.events_dispatched);
  expect_same_result(rf, rp);
  for (std::size_t i = 0; i < rp.ops.size(); ++i) {
    EXPECT_EQ(rp.ops[i].admitted, rp.ops[i].arrival) << "op " << i;
  }
}

TEST(TrafficEngine, PacedDefersOverlappingBurst) {
  const Rig rig = make_rig(13);
  // Four identical-footprint multicasts arriving back to back: with zero
  // overlap tolerance the paced scheduler must defer the tail of the
  // burst; FIFO launches everything immediately.
  const std::int32_t n = 8;
  const std::int32_t m = 4;
  std::vector<topo::HostId> dests;
  for (topo::HostId h = 1; h < n; ++h) dests.push_back(h);
  const core::Chain members = core::arrange_participants(rig.cco, 0, dests);
  const std::int32_t k = core::optimal_k(n, m).k;
  const core::HostTree tree =
      core::HostTree::bind(core::make_kbinomial(n, k), members);
  Workload wl;
  for (std::int32_t i = 0; i < 4; ++i) {
    TrafficOp op;
    op.cls = OpClass::kMulticast;
    op.arrival = sim::Time::ns(1 + i);
    op.tree = tree;
    op.packets = m;
    wl.ops.push_back(op);
    ++wl.multicasts;
  }
  TrafficConfig pcfg = engine_config(Policy::kPaced);
  pcfg.scheduler.overlap_tolerance_x1000 = 0;
  const TrafficEngine paced{*rig.topology, *rig.routes, pcfg};
  const TrafficEngine fifo{*rig.topology, *rig.routes,
                           engine_config(Policy::kFifo)};
  const TrafficResult rp = paced.run(wl);
  const TrafficResult rf = fifo.run(wl);
  EXPECT_EQ(rf.deferral_ticks, 0);
  EXPECT_GT(rp.deferral_ticks, 0);
  EXPECT_GT(rp.ticks, 0);
  // Both policies still deliver everything.
  EXPECT_EQ(rp.packets_delivered, rf.packets_delivered);
  // Deferred operations admit strictly after their arrival.
  bool any_later = false;
  for (const OpRecord& rec : rp.ops) {
    if (rec.admitted > rec.arrival) any_later = true;
  }
  EXPECT_TRUE(any_later);
}

TEST(TrafficEngine, ZeroDestinationRebindStillReleasesItsFootprint) {
  const Rig rig = make_rig(37);
  // A churn stream whose re-bound group is the root alone: its phase-1
  // message has no destinations, so no arrival ever completes it. It
  // must still count as done at the first sweep after its launch, or
  // the stream would hold its footprint and the overlapping multicasts
  // behind it (zero tolerance) would admit late.
  std::vector<topo::HostId> dests;
  for (topo::HostId h = 1; h < 8; ++h) dests.push_back(h);
  const core::Chain members = core::arrange_participants(rig.cco, 0, dests);
  const core::HostTree tree = core::HostTree::bind(
      core::make_kbinomial(8, core::optimal_k(8, 4).k), members);
  core::HostTree solo;
  solo.root = tree.root;
  solo.nodes = {tree.root};
  solo.children[tree.root] = {};

  Workload wl;
  TrafficOp stream;
  stream.cls = OpClass::kStream;
  stream.arrival = sim::Time::ns(1);
  stream.tree = tree;
  stream.packets = 12;
  stream.churn = true;
  stream.split = 6;
  stream.tree2 = solo;
  wl.ops.push_back(stream);
  ++wl.streams;
  ++wl.churns;
  for (std::int32_t i = 0; i < 3; ++i) {
    TrafficOp op;
    op.cls = OpClass::kMulticast;
    op.arrival = sim::Time::us(20.0 * (i + 1));
    op.tree = tree;
    op.packets = 4;
    wl.ops.push_back(op);
    ++wl.multicasts;
  }

  TrafficConfig cfg = engine_config(Policy::kPaced);
  cfg.scheduler.overlap_tolerance_x1000 = 0;
  const TrafficResult r =
      TrafficEngine{*rig.topology, *rig.routes, cfg}.run(wl);
  // The stream delivers only its prefix; the suffix has nowhere to go.
  EXPECT_EQ(r.ops[0].packets_delivered, 7 * 6);
  EXPECT_EQ(r.digest, UINT64_C(0x04789bc79c461a3f));
  EXPECT_EQ(r.makespan.count_ns(), 237'100);
  EXPECT_EQ(r.ticks, 20);
  EXPECT_EQ(r.deferral_ticks, 32);
  // Op 1 admits as soon as the stream releases, four ticks before its
  // 12-tick aging bound would force it in.
  const std::vector<std::int64_t> admitted_ns = {1, 88'001, 136'001,
                                                160'001};
  ASSERT_EQ(r.ops.size(), admitted_ns.size());
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    EXPECT_EQ(r.ops[i].admitted.count_ns(), admitted_ns[i]) << "op " << i;
  }
}

TEST(TrafficEngine, SerialAndShardedAreBitIdentical) {
  const Rig rig = make_rig(17, 64);
  WorkloadConfig wcfg = mix_config(20.0, 24);
  wcfg.churn_probability = 0.8;
  const Workload wl = generate_workload(64, rig.cco, wcfg);
  const TrafficEngine serial{*rig.topology, *rig.routes,
                             engine_config(Policy::kPaced, 1)};
  const TrafficResult rs = serial.run(wl);
  for (std::int32_t shards : {2, 4}) {
    const TrafficEngine sharded{*rig.topology, *rig.routes,
                                engine_config(Policy::kPaced, shards)};
    const TrafficResult rx = sharded.run(wl);
    EXPECT_GT(rx.shards_used, 1) << shards;
    expect_same_result(rs, rx);
  }
}

TEST(TrafficEngine, AdmissionOrderDeterministicAcrossSeedsAndShards) {
  const Rig rig = make_rig(19, 64);
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    WorkloadConfig wcfg = mix_config(25.0, 16);
    wcfg.seed = seed;
    const Workload wl = generate_workload(64, rig.cco, wcfg);
    std::vector<sim::Time> reference;
    for (std::int32_t shards : {1, 2, 4}) {
      const TrafficEngine engine{*rig.topology, *rig.routes,
                                 engine_config(Policy::kPaced, shards)};
      const TrafficResult r = engine.run(wl);
      std::vector<sim::Time> admitted;
      admitted.reserve(r.ops.size());
      for (const OpRecord& rec : r.ops) admitted.push_back(rec.admitted);
      if (shards == 1) {
        reference = admitted;
      } else {
        EXPECT_EQ(admitted, reference) << "seed " << seed << " shards "
                                       << shards;
      }
    }
  }
}

TEST(TrafficEngine, SharedFabricWindowIsStableAcrossTheMix) {
  const Rig rig = make_rig(23, 64);
  WorkloadConfig wcfg = mix_config(10.0, 20);
  const Workload wl = generate_workload(64, rig.cco, wcfg);
  TrafficConfig tcfg = engine_config(Policy::kPaced, 4);
  tcfg.network.release_model = net::ReleaseModel::kPipelined;
  const TrafficEngine engine{*rig.topology, *rig.routes, tcfg};
  // The one shared-fabric window equals the min over per-op safe
  // windows (the per-op recomputation the traffic engine replaced):
  // every single-op sub-mix must plan a window at least as wide.
  const sim::Time shared = engine.planned_window(wl);
  sim::Time per_op_min;
  bool first = true;
  for (const TrafficOp& op : wl.ops) {
    Workload single;
    single.ops.push_back(op);
    const sim::Time w = engine.planned_window(single);
    per_op_min = first ? w : std::min(per_op_min, w);
    first = false;
    EXPECT_GE(w, shared);
  }
  EXPECT_EQ(per_op_min, shared);
  // And the run itself must use exactly that window (no mid-mix
  // re-shard; the engine throws std::logic_error if the choice could
  // diverge).
  const TrafficResult r = engine.run(wl);
  EXPECT_EQ(r.window_ns, shared.count_ns());
}

TEST(TrafficEngine, RejectsFaultyAndLossyFabrics) {
  const Rig rig = make_rig(29);
  TrafficConfig faulty = engine_config(Policy::kPaced);
  faulty.network.faults.link_down(sim::Time::us(1.0), 0);
  EXPECT_THROW((TrafficEngine{*rig.topology, *rig.routes, faulty}),
               std::invalid_argument);
  TrafficConfig lossy = engine_config(Policy::kPaced);
  lossy.network.loss_rate = 0.1;
  EXPECT_THROW((TrafficEngine{*rig.topology, *rig.routes, lossy}),
               std::invalid_argument);
}

TEST(TrafficEngine, RejectsMalformedWorkloads) {
  const Rig rig = make_rig(31);
  const TrafficEngine engine{*rig.topology, *rig.routes,
                             engine_config(Policy::kFifo)};
  EXPECT_THROW((void)engine.run(Workload{}), std::invalid_argument);
  Workload wl = generate_workload(32, rig.cco, mix_config(2.0, 4));
  std::swap(wl.ops.front().arrival, wl.ops.back().arrival);
  EXPECT_THROW((void)engine.run(wl), std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::traffic
