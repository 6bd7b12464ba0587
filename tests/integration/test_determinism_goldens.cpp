// Golden determinism tests: exact latencies for fixed seeds.
//
// Purpose: any change in event ordering, RNG consumption, tie-breaking
// or model arithmetic shifts these values, and such changes must be
// *deliberate*. If you change the model on purpose, update the goldens
// and say so in the commit; if you didn't, you have introduced
// nondeterminism or an accidental semantic change.
//
// (The values were produced by this implementation; they pin behaviour,
// not external truth.)

#include <gtest/gtest.h>

#include "api/communicator.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/ordering.hpp"
#include "harness/testbed.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/irregular.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace nimcast {
namespace {

TEST(Goldens, RngStream) {
  sim::Rng rng{1997};
  EXPECT_EQ(rng.next_u64(), UINT64_C(0x62dec0605b915f34));
}

TEST(Goldens, SingleMulticastOnSeededCluster) {
  sim::Rng rng{1997};
  const auto topology = topo::make_irregular(topo::IrregularConfig{}, rng);
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  const auto chain = core::cco_ordering(topology, router);
  const auto members = core::arrange_participants(
      chain, chain[0],
      {chain[5], chain[9], chain[20], chain[33], chain[47], chain[60],
       chain[63]});
  const auto tree = core::HostTree::bind(core::make_kbinomial(8, 2), members);
  const mcast::MulticastEngine engine{
      topology, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{},
                                     net::NetworkConfig{},
                                     mcast::NiStyle::kSmartFpfs}};
  const auto result = engine.run(tree, 8);
  EXPECT_EQ(result.latency.count_ns(), 101'300);
  EXPECT_EQ(result.total_channel_block_time.count_ns(), 0);
}

TEST(Goldens, TestbedPoint) {
  harness::IrregularTestbed::Config cfg;
  cfg.num_topologies = 2;
  cfg.sets_per_topology = 5;
  cfg.seed = 77;
  const harness::IrregularTestbed bed{cfg};
  const auto p = bed.measure(16, 8, harness::TreeSpec::optimal(),
                             mcast::NiStyle::kSmartFpfs);
  EXPECT_NEAR(p.latency_us.mean(), 107.14, 1e-9);
}

TEST(Goldens, CommunicatorBroadcast) {
  const auto comm = api::Communicator::irregular();
  const auto r = comm.broadcast(0, 1024);
  EXPECT_EQ(r.latency.count_ns(), 188'300);
}

// One 96-op traffic mix on the seeded 64-host cluster at 16 B/us (one
// packet serializes in 4 us, so channels bind), under bench_traffic's
// paced operating point with `policy` deciding admission.
traffic::TrafficResult run_traffic_mix(double ops_per_ms, std::uint64_t seed,
                                       traffic::Policy policy) {
  sim::Rng rng{1997};
  const auto topology = topo::make_irregular(topo::IrregularConfig{}, rng);
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  traffic::WorkloadConfig wcfg;
  wcfg.num_ops = 96;
  wcfg.ops_per_ms = ops_per_ms;
  wcfg.seed = seed;
  const auto workload = traffic::generate_workload(
      topology.num_hosts(), core::cco_ordering(topology, router), wcfg);
  traffic::TrafficConfig cfg;
  cfg.network.bandwidth_bytes_per_us = 16.0;
  cfg.scheduler.policy = policy;
  cfg.scheduler.overlap_tolerance_x1000 = 500;
  cfg.scheduler.max_defer_ticks = 2;
  cfg.scheduler.tick = sim::Time::us(5.0);
  return traffic::TrafficEngine{topology, routes, cfg}.run(workload);
}

// Contended multi-tenant traffic at bench_traffic's saturation load.
// Deferrals, compound-op phase transitions and footprint releases all
// happen here, so the pins cover every coordinator decision the
// uncontended goldens above never reach.
TEST(Goldens, TrafficMixAtSaturation) {
  const auto fifo = run_traffic_mix(2560.0, 1997, traffic::Policy::kFifo);
  const auto paced = run_traffic_mix(2560.0, 1997, traffic::Policy::kPaced);
  bool collective = false;
  bool churn = false;
  for (const traffic::OpRecord& op : paced.ops) {
    collective = collective || op.cls == traffic::OpClass::kCollective;
    churn = churn || op.churn;
  }
  ASSERT_TRUE(collective);
  ASSERT_TRUE(churn);

  EXPECT_EQ(fifo.digest, UINT64_C(0x326b5ba2ba340f2e));
  EXPECT_EQ(fifo.makespan.count_ns(), 2'736'538);
  EXPECT_EQ(fifo.ticks, 510);
  EXPECT_EQ(fifo.deferral_ticks, 0);
  EXPECT_EQ(paced.digest, UINT64_C(0x3ff8f1a8b7fc75a8));
  EXPECT_EQ(paced.makespan.count_ns(), 2'744'161);
  EXPECT_EQ(paced.ticks, 517);
  EXPECT_EQ(paced.deferral_ticks, 180);
  EXPECT_GT(paced.deferral_ticks, 0);
}

// Phase-1 messages that become launchable at the same coordinator sweep
// launch in ascending op index, and that order sets same-instant FIFO
// tie-breaks in the NIs and the fabric. Of 72 mixes probed (loads 160,
// 640 and 2560 ops/ms, seeds 1-12, both policies), this is the one whose
// digest changes when the sweep launches them in descending order.
TEST(Goldens, TrafficPhaseOneLaunchOrder) {
  const auto r = run_traffic_mix(160.0, 1, traffic::Policy::kPaced);
  EXPECT_EQ(r.digest, UINT64_C(0x18619547479f5c2c));
}

}  // namespace
}  // namespace nimcast
