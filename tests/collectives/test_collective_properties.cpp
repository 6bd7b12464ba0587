// Parameterized property sweep over every collective kind and a grid of
// (n, m, k) shapes: completion semantics, packet conservation and
// latency ordering invariants.

#include <gtest/gtest.h>

#include <tuple>

#include "collectives/collective_engine.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "routing/up_down.hpp"

namespace nimcast::collectives {
namespace {

using Params = std::tuple<std::int32_t, std::int32_t, std::int32_t,
                          CollectiveKind>;  // n, m, k, kind

class CollectiveSweep : public ::testing::TestWithParam<Params> {
 protected:
  static constexpr std::int32_t kHosts = 20;

  CollectiveSweep()
      : topology_{topo::Graph{1, {}},
                  std::vector<topo::SwitchId>(kHosts, 0), "star"},
        router_{topology_.switches()},
        routes_{topology_, router_},
        engine_{topology_, routes_, CollectiveEngine::Config{}} {}

  CollectiveResult run(std::int32_t n, std::int32_t m, std::int32_t k,
                       CollectiveKind kind) const {
    core::Chain order;
    for (std::int32_t i = 0; i < n; ++i) order.push_back(i);
    return engine_.run(
        kind, core::HostTree::bind(core::make_kbinomial(n, k), order), m);
  }

  static std::int64_t sum_of_depths(const core::RankTree& t) {
    std::int64_t total = 0;
    for (std::int32_t r = 1; r < t.size(); ++r) {
      std::int32_t v = r;
      while (v != 0) {
        v = t.parent[static_cast<std::size_t>(v)];
        ++total;
      }
    }
    return total;
  }

  topo::Topology topology_;
  routing::UpDownRouter router_;
  routing::RouteTable routes_;
  CollectiveEngine engine_;
};

TEST_P(CollectiveSweep, CompletionSemantics) {
  const auto [n, m, k, kind] = GetParam();
  const auto result = run(n, m, k, kind);
  std::size_t expected = 0;
  switch (kind) {
    case CollectiveKind::kBroadcast:
    case CollectiveKind::kScatter:
      expected = static_cast<std::size_t>(n - 1);
      break;
    case CollectiveKind::kGather:
    case CollectiveKind::kReduce:
      expected = 1;
      break;
    case CollectiveKind::kAllReduce:
      expected = static_cast<std::size_t>(n);
      break;
  }
  EXPECT_EQ(result.completions.size(), expected);
  for (const auto& [h, t] : result.completions) {
    EXPECT_LE(t, result.latency);
    EXPECT_GT(t, sim::Time::zero());
  }
}

TEST_P(CollectiveSweep, PacketConservation) {
  const auto [n, m, k, kind] = GetParam();
  const auto result = run(n, m, k, kind);
  const auto tree = core::make_kbinomial(n, k);
  std::int64_t expected = 0;
  switch (kind) {
    case CollectiveKind::kBroadcast:
    case CollectiveKind::kReduce:
      expected = static_cast<std::int64_t>(n - 1) * m;  // one per edge
      break;
    case CollectiveKind::kAllReduce:
      expected = 2 * static_cast<std::int64_t>(n - 1) * m;
      break;
    case CollectiveKind::kScatter:
    case CollectiveKind::kGather:
      expected = sum_of_depths(tree) * m;  // every packet walks its path
      break;
  }
  EXPECT_EQ(result.packets_injected, expected);
}

TEST_P(CollectiveSweep, MorePacketsNeverFaster) {
  const auto [n, m, k, kind] = GetParam();
  if (m == 1) return;
  EXPECT_GE(run(n, m, k, kind).latency, run(n, m - 1, k, kind).latency);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollectiveSweep,
    ::testing::Combine(::testing::Values(2, 6, 12, 20),  // n
                       ::testing::Values(1, 4),          // m
                       ::testing::Values(1, 2, 4),       // k
                       ::testing::Values(CollectiveKind::kBroadcast,
                                         CollectiveKind::kScatter,
                                         CollectiveKind::kGather,
                                         CollectiveKind::kReduce,
                                         CollectiveKind::kAllReduce)),
    [](const ::testing::TestParamInfo<Params>& pinfo) {
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_m";
      name += std::to_string(std::get<1>(pinfo.param));
      name += "_k";
      name += std::to_string(std::get<2>(pinfo.param));
      name += '_';
      name += to_string(std::get<3>(pinfo.param));
      return name;
    });

}  // namespace
}  // namespace nimcast::collectives
