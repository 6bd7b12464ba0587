// Parameterized validation of the paper's theorems against the step-model
// executor. These are the load-bearing correctness tests of the
// reproduction: the executor knows nothing about the formulas, so
// agreement over a broad (n, k, m) sweep is strong evidence both are
// right.

#include <gtest/gtest.h>

#include "core/coverage.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "mcast/step_model.hpp"

namespace nimcast::mcast {
namespace {

struct Params {
  std::int32_t n;
  std::int32_t k;
  std::int32_t m;
};

class TheoremSweep : public ::testing::TestWithParam<Params> {};

TEST_P(TheoremSweep, Theorem1GapBetweenPacketCompletionsIsRootChildCount) {
  const auto [n, k, m] = GetParam();
  const core::RankTree tree = core::make_kbinomial(n, k);
  if (n == 1) return;
  const auto sched = step_schedule(tree, m, Discipline::kFpfs);
  const std::int32_t c_root = tree.root_children();
  for (std::int32_t j = 0; j + 1 < m; ++j) {
    EXPECT_EQ(sched.completion[static_cast<std::size_t>(j + 1)] -
                  sched.completion[static_cast<std::size_t>(j)],
              c_root)
        << "n=" << n << " k=" << k << " packet " << j;
  }
}

TEST_P(TheoremSweep, Theorem2TotalStepsIsT1PlusPipelineFill) {
  const auto [n, k, m] = GetParam();
  if (n == 1) return;
  const core::RankTree tree = core::make_kbinomial(n, k);
  const auto sched = step_schedule(tree, m, Discipline::kFpfs);
  core::CoverageTable cov;
  const std::int32_t t1 = cov.min_steps(static_cast<std::uint64_t>(n), k);
  EXPECT_EQ(sched.total_steps, t1 + (m - 1) * tree.root_children())
      << "n=" << n << " k=" << k << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TheoremSweep, ::testing::ValuesIn([] {
      std::vector<Params> ps;
      for (std::int32_t n : {2, 3, 4, 7, 8, 15, 16, 23, 31, 32, 48, 64}) {
        for (std::int32_t k : {1, 2, 3, 4, 5, 6}) {
          for (std::int32_t m : {1, 2, 3, 4, 8, 16}) {
            ps.push_back(Params{n, k, m});
          }
        }
      }
      return ps;
    }()),
    [](const ::testing::TestParamInfo<Params>& pinfo) {
      std::string name = "n";
      name += std::to_string(pinfo.param.n);
      name += "_k";
      name += std::to_string(pinfo.param.k);
      name += "_m";
      name += std::to_string(pinfo.param.m);
      return name;
    });

// Theorem 1 is stated for *any* multicast tree, not just k-binomial ones;
// spot-check irregular hand-built trees.
TEST(Theorem1General, HoldsOnArbitraryTrees) {
  const auto check = [](const core::RankTree& t, std::int32_t m) {
    const auto sched = step_schedule(t, m, Discipline::kFpfs);
    for (std::int32_t j = 0; j + 1 < m; ++j) {
      ASSERT_EQ(sched.completion[static_cast<std::size_t>(j + 1)] -
                    sched.completion[static_cast<std::size_t>(j)],
                t.root_children());
    }
  };
  // Lopsided tree: 0 -> (1 -> (2 -> (3,4), 5), 6).
  core::RankTree a;
  a.parent = {-1, 0, 1, 2, 2, 1, 0};
  a.children = {{1, 6}, {2, 5}, {3, 4}, {}, {}, {}, {}};
  a.validate();
  check(a, 5);

  // Star: root sends to 6 leaves.
  core::RankTree b;
  b.parent = {-1, 0, 0, 0, 0, 0, 0};
  b.children = {{1, 2, 3, 4, 5, 6}, {}, {}, {}, {}, {}, {}};
  b.validate();
  check(b, 4);
}

TEST(Theorem3, OptimalKBeatsEveryOtherKInTheStepModel) {
  // The claimed-optimal tree must be at least as fast as every other
  // k-binomial tree when actually executed.
  for (std::int32_t n : {4, 8, 15, 16, 31, 48, 64}) {
    for (std::int32_t m : {1, 2, 4, 8, 16, 32}) {
      const core::OptimalChoice choice = core::optimal_k(n, m);
      const auto best = step_schedule(core::make_kbinomial(n, choice.k), m,
                                      Discipline::kFpfs);
      EXPECT_EQ(best.total_steps, choice.total_steps);
      for (std::int32_t k = 1;
           k <= core::ceil_log2(static_cast<std::uint64_t>(n)); ++k) {
        const auto other = step_schedule(core::make_kbinomial(n, k), m,
                                         Discipline::kFpfs);
        EXPECT_LE(best.total_steps, other.total_steps)
            << "n=" << n << " m=" << m << " loses to k=" << k;
      }
    }
  }
}

TEST(Lemma1, CoverageMatchesActualTreeSizesAtEveryDepth) {
  // N(s, k) claims how many nodes a k-binomial tree reaches within s
  // steps. On a *saturated* tree (n == N(S, k) exactly) every step is
  // fully used, so the count of ranks reached by step s must equal
  // N(s, k) for every s <= S.
  core::CoverageTable cov;
  for (std::int32_t k = 1; k <= 5; ++k) {
    const std::int32_t S = 8;
    const auto n = static_cast<std::int32_t>(cov.coverage(S, k));
    const core::RankTree tree = core::make_kbinomial(n, k);
    const auto steps = tree.single_packet_steps();
    ASSERT_EQ(tree.steps_to_complete(), S);
    for (std::int32_t s = 0; s <= S; ++s) {
      std::uint64_t covered = 0;
      for (std::int32_t st : steps) {
        if (st <= s) ++covered;
      }
      EXPECT_EQ(covered, cov.coverage(s, k)) << "k=" << k << " s=" << s;
    }
  }
}

TEST(Lemma1, TruncatedTreesNeverExceedCoverage) {
  // For arbitrary n the realized reach at depth s is bounded by N(s, k).
  core::CoverageTable cov;
  for (std::int32_t k = 1; k <= 5; ++k) {
    for (std::int32_t n : {10, 50, 137, 200}) {
      const core::RankTree tree = core::make_kbinomial(n, k);
      const auto steps = tree.single_packet_steps();
      for (std::int32_t s = 0; s <= tree.steps_to_complete(); ++s) {
        std::uint64_t covered = 0;
        for (std::int32_t st : steps) {
          if (st <= s) ++covered;
        }
        EXPECT_LE(covered, cov.coverage(s, k))
            << "k=" << k << " n=" << n << " s=" << s;
      }
    }
  }
}

}  // namespace
}  // namespace nimcast::mcast
