// NI conservation: whatever the fabric does to a multicast — nothing,
// random loss, a link cut mid-run — every NI ends the run with its buffers
// drained, its coprocessor idle and nothing parked, for every NI style.
// Plus the misuse checks the flat per-message state must keep.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "netif/conventional_ni.hpp"
#include "netif/host.hpp"
#include "netif/reliable_ni.hpp"
#include "netif/smart_ni.hpp"
#include "routing/up_down.hpp"

namespace nimcast::netif {
namespace {

enum class Style { kFpfs, kFcfs, kConventional, kReliable };

/// Nine hosts, three per switch on a 0 - 1 - 2 switch line; link 0 joins
/// switches 0 and 1. NIs and hosts are wired the way the engines wire
/// them: NI completion -> host t_r -> after_host_receive.
struct Rig {
  static constexpr std::int32_t kHosts = 9;
  sim::Simulator simctx;
  topo::Topology topology{topo::Graph{3, {{0, 1}, {1, 2}}},
                          {0, 0, 0, 1, 1, 1, 2, 2, 2}, "line3"};
  routing::UpDownRouter router{topology.switches()};
  routing::RouteTable routes{topology, router};
  net::WormholeNetwork network;
  std::vector<std::unique_ptr<NetworkInterface>> nis;
  std::vector<std::unique_ptr<Host>> hosts;
  std::int32_t completions = 0;

  Rig(Style style, net::NetworkConfig netcfg)
      : network{simctx, topology, routes, std::move(netcfg)} {
    const SystemParams params{};
    for (topo::HostId h = 0; h < kHosts; ++h) {
      switch (style) {
        case Style::kFpfs:
          nis.push_back(std::make_unique<FpfsNi>(simctx, network, params, h));
          break;
        case Style::kFcfs:
          nis.push_back(std::make_unique<FcfsNi>(simctx, network, params, h));
          break;
        case Style::kConventional:
          nis.push_back(
              std::make_unique<ConventionalNi>(simctx, network, params, h));
          break;
        case Style::kReliable:
          nis.push_back(std::make_unique<ReliableFpfsNi>(
              simctx, network, params, ReliabilityParams{}, h));
          break;
      }
      hosts.push_back(std::make_unique<Host>(simctx, h, params));
    }
    for (auto& ni : nis) {
      ni->on_message_at_ni = [this](topo::HostId h, net::MessageId m) {
        ++completions;
        auto& host = *hosts[static_cast<std::size_t>(h)];
        host.software_receive([this, h, m, &host] {
          nis[static_cast<std::size_t>(h)]->after_host_receive(m, host);
        });
      };
    }
  }

  /// A k = 2 binomial multicast of `m` packets from host 0 to all.
  void multicast(net::MessageId message, std::int32_t m) {
    core::Chain order;
    for (topo::HostId h = 0; h < kHosts; ++h) order.push_back(h);
    const auto tree =
        core::HostTree::bind(core::make_kbinomial(kHosts, 2), order);
    for (topo::HostId h : tree.nodes) {
      ForwardingEntry entry;
      entry.children = tree.children.at(h);
      entry.packet_count = m;
      entry.is_destination = h != tree.root;
      nis[static_cast<std::size_t>(h)]->install(message, entry);
    }
    nis[0]->start_from_host(message, *hosts[0]);
    simctx.run();
  }

  void expect_conserved() const {
    EXPECT_TRUE(simctx.idle());
    for (topo::HostId h = 0; h < kHosts; ++h) {
      const auto& ni = *nis[static_cast<std::size_t>(h)];
      SCOPED_TRACE(std::string(ni.style()) + " host " + std::to_string(h));
      EXPECT_EQ(ni.buffer().current(), 0.0);
      EXPECT_EQ(ni.coprocessor().queued(), 0u);
      EXPECT_EQ(ni.coprocessor().active(), 0);
      EXPECT_EQ(ni.coprocessor().parked(), 0u);
      const auto& cpu = hosts[static_cast<std::size_t>(h)]->cpu();
      EXPECT_EQ(cpu.queued(), 0u);
      EXPECT_EQ(cpu.active(), 0);
      EXPECT_EQ(cpu.parked(), 0u);
    }
  }
};

net::NetworkConfig link_cut_at(double us) {
  net::NetworkConfig netcfg;
  netcfg.faults.link_down(sim::Time::us(us), 0);
  return netcfg;
}

TEST(NiConservation, LosslessEveryStyleDeliversAndDrains) {
  for (Style style : {Style::kFpfs, Style::kFcfs, Style::kConventional,
                      Style::kReliable}) {
    Rig rig{style, {}};
    rig.multicast(1, 6);
    EXPECT_EQ(rig.completions, Rig::kHosts - 1);
    if (style != Style::kConventional) {  // its message stays in host memory
      EXPECT_GT(rig.nis[0]->buffer().peak(), 0.0);
    }
    rig.expect_conserved();
  }
}

TEST(NiConservation, ReliableUnderLossDeliversAndDrains) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    net::NetworkConfig netcfg;
    netcfg.loss_rate = 0.2;
    netcfg.loss_seed = seed;
    Rig rig{Style::kReliable, netcfg};
    rig.multicast(1, 6);
    EXPECT_EQ(rig.completions, Rig::kHosts - 1) << "seed " << seed;
    EXPECT_GT(
        static_cast<const ReliableFpfsNi&>(*rig.nis[0]).retransmissions() +
            static_cast<const ReliableFpfsNi&>(*rig.nis[1]).retransmissions(),
        0);
    rig.expect_conserved();
  }
}

TEST(NiConservation, LinkCutMidRunDrainsEveryStyle) {
  for (Style style : {Style::kFpfs, Style::kFcfs, Style::kConventional,
                      Style::kReliable}) {
    Rig rig{style, link_cut_at(40.0)};
    rig.multicast(1, 6);
    EXPECT_EQ(rig.network.faults_applied(), 1);
    // The cut strands the hosts behind it: the run ends short.
    EXPECT_LT(rig.completions, Rig::kHosts - 1);
    rig.expect_conserved();
  }
}

TEST(NiConservation, PacketForAnUninstalledMessageThrows) {
  Rig rig{Style::kFpfs, {}};
  net::Packet p;
  p.message = 5;
  p.sender = 1;
  p.dest = 0;
  rig.nis[0]->deliver(p);
  EXPECT_THROW(rig.simctx.run(), std::logic_error);
}

TEST(NiConservation, DuplicatePacketThrows) {
  for (Style style : {Style::kFpfs, Style::kFcfs, Style::kConventional}) {
    Rig rig{style, {}};
    rig.nis[1]->install(1, ForwardingEntry{{}, 1, true});
    net::Packet p;
    p.message = 1;
    p.sender = 0;
    p.dest = 1;
    rig.nis[1]->deliver(p);
    rig.nis[1]->deliver(p);
    EXPECT_THROW(rig.simctx.run(), std::logic_error);
  }
}

TEST(NiConservation, LargeMessageIdGrowsOnlyItsOwnNi) {
  Rig rig{Style::kFpfs, {}};
  const std::size_t before = rig.nis[2]->state_bytes();
  constexpr net::MessageId kBig = 1 << 20;
  rig.nis[1]->install(kBig, ForwardingEntry{{}, 2, true});
  rig.nis[2]->install(1, ForwardingEntry{{}, 2, true});
  EXPECT_GE(rig.nis[1]->state_bytes(), sizeof(std::int32_t) * kBig);
  EXPECT_LT(rig.nis[2]->state_bytes(), before + 1024);
  for (topo::HostId h : {0, 3, 8}) {
    EXPECT_LT(rig.nis[static_cast<std::size_t>(h)]->state_bytes(), 1024u);
  }
  // The big id still works end to end.
  for (std::int32_t j = 0; j < 2; ++j) {
    net::Packet p;
    p.message = kBig;
    p.packet_index = j;
    p.packet_count = 2;
    p.sender = 0;
    p.dest = 1;
    rig.nis[1]->deliver(p);
  }
  rig.simctx.run();
  EXPECT_EQ(rig.completions, 1);
}

TEST(NiConservation, NegativeMessageIdRejected) {
  Rig rig{Style::kFpfs, {}};
  EXPECT_THROW(rig.nis[0]->install(-1, ForwardingEntry{{1}, 1, false}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::netif
