// Edge cases and cross-cutting invariants: tiny populations, degenerate
// opinion counts, extreme skews, and lower bounds that must hold on every
// single run.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "runner/run.hpp"
#include "core/phase_tracker.hpp"
#include "core/usd.hpp"
#include "gossip/gossip_usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "sim/registry.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using core::StepMode;
using core::UsdOptions;
using core::UsdSimulator;
using pp::Configuration;

TEST(EdgeCases, TwoAgentsConverge) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    UsdSimulator sim(Configuration({1, 1}, 0), rng::Rng(seed));
    ASSERT_TRUE(sim.run_to_consensus(1'000'000));
    EXPECT_EQ(sim.opinion(sim.consensus_opinion()), 2u);
  }
}

TEST(EdgeCases, TwoAgentsSkipModeConverges) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    UsdSimulator sim(Configuration({1, 1}, 0), rng::Rng(seed),
                     UsdOptions{StepMode::kSkipUnproductive});
    ASSERT_TRUE(sim.run_to_consensus(1'000'000));
  }
}

TEST(EdgeCases, SingleAgentIsConsensusAlready) {
  UsdSimulator sim(Configuration({1}, 0), rng::Rng(1));
  EXPECT_TRUE(sim.is_consensus());
}

TEST(EdgeCases, OpinionsWithZeroSupportStayDead) {
  // k larger than the number of decided agents: most opinions start (and
  // must remain) at zero support — the USD never invents opinions.
  UsdSimulator sim(Configuration({5, 3, 0, 0, 0, 0, 0, 0}, 12),
                   rng::Rng(3));
  sim.run_to_consensus(10'000'000);
  ASSERT_TRUE(sim.is_consensus());
  EXPECT_LT(sim.consensus_opinion(), 2);
}

TEST(EdgeCases, KGreaterThanN) {
  // 4 agents, 8 opinions: only 4 opinions can have support.
  const auto x0 = Configuration::uniform(4, 8, 0);
  UsdSimulator sim(x0, rng::Rng(7));
  ASSERT_TRUE(sim.run_to_consensus(1'000'000));
}

TEST(EdgeCases, OneDecidedAgentAmongUndecided) {
  // The lone decided agent must win; also the fastest possible consensus
  // shape (pure adoption).
  for (auto mode : {StepMode::kEveryInteraction,
                    StepMode::kSkipUnproductive}) {
    UsdSimulator sim(Configuration({1, 0}, 999), rng::Rng(5),
                     UsdOptions{mode});
    ASSERT_TRUE(sim.run_to_consensus(100'000'000));
    EXPECT_EQ(sim.consensus_opinion(), 0);
  }
}

TEST(EdgeCases, ExtremeSkewSkipModeHandlesLowAcceptance) {
  // One giant opinion and one singleton: the skip engine's rejection
  // sampling has worst-case acceptance here; it must still be exact and
  // terminate. Opinion 0 should essentially always win.
  int wins = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    UsdSimulator sim(Configuration({9999, 1}, 0), rng::Rng(seed),
                     UsdOptions{StepMode::kSkipUnproductive});
    ASSERT_TRUE(sim.run_to_consensus(1'000'000'000));
    wins += sim.consensus_opinion() == 0 ? 1 : 0;
  }
  EXPECT_EQ(wins, 20);
}

// Every run needs at least n - x_winner(0) interactions: each agent not
// initially holding the winning opinion must change state at least once,
// and an interaction changes at most one agent.
class LowerBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LowerBoundSweep, InteractionsAtLeastAgentsThatMustMove) {
  const std::uint64_t seed = GetParam();
  const auto x0 = Configuration::uniform(500, 4, 100);
  for (auto mode : {StepMode::kEveryInteraction,
                    StepMode::kSkipUnproductive}) {
    UsdSimulator sim(x0, rng::Rng(seed), UsdOptions{mode});
    ASSERT_TRUE(sim.run_to_consensus(100'000'000));
    const auto initial_support =
        x0.opinion(sim.consensus_opinion());
    EXPECT_GE(sim.interactions(), x0.n() - initial_support);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerBoundSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(EdgeCases, GossipSingleOpinionWithUndecided) {
  gossip::GossipUsd g(Configuration({10}, 990), rng::Rng(11));
  ASSERT_TRUE(g.run_to_consensus(100000));
  EXPECT_EQ(g.consensus_opinion(), 0);
}

TEST(EdgeCases, GossipTwoAgents) {
  // From {1, 1} the synchronous rounds genuinely can absorb without
  // consensus: with probability 1/4 per round both agents flip undecided
  // simultaneously, and an all-undecided population never re-decides
  // (partners come from the pre-round configuration). So each seed must
  // end in one of exactly two absorbing states: consensus, or the
  // all-undecided trap — anything else within the budget is a bug.
  int converged = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    gossip::GossipUsd g(Configuration({1, 1}, 0), rng::Rng(seed));
    if (g.run_to_consensus(1'000'000)) {
      ++converged;
    } else {
      EXPECT_EQ(g.undecided(), 2u) << "seed " << seed;
    }
  }
  // P(trap) = 1/3 per seed: all 12 trapping has probability 3^-12.
  EXPECT_GT(converged, 0);
}

TEST(EdgeCases, RunUsdSmallestPopulation) {
  const auto r = runner::run_usd(Configuration({1, 1}, 0), 3);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.phases.complete());
}

TEST(EdgeCases, CustomAlphaAffectsPhase2Detection) {
  // alpha = 100 puts the significance threshold above n at this scale, so
  // T2 (a unique significant opinion) can NEVER fire — and because later
  // phases wait for earlier ones, T3..T5 stay empty too, even though the
  // process itself converges. alpha only changes detection, not dynamics:
  // both trackers watch the one trajectory.
  const auto x0 = Configuration::uniform(2000, 3, 0);
  const auto engine = sim::Registry::instance().create("skip", x0, 5);
  core::PhaseTracker strict(x0.n(), 100.0);
  core::PhaseTracker normal(x0.n());
  ASSERT_TRUE(engine->run_observed(
      engine->default_budget(), engine->default_observe_interval(),
      [&](std::uint64_t t, std::span<const pp::Count> opinions,
          pp::Count undecided) {
        strict.observe(t, opinions, undecided);
        normal.observe(t, opinions, undecided);
      }));
  EXPECT_TRUE(strict.times().t1.has_value());
  EXPECT_FALSE(strict.times().t2.has_value());
  EXPECT_FALSE(strict.times().t5.has_value());
  EXPECT_TRUE(normal.times().complete());
  // run_usd tracks phases at the paper's alpha: the same phases.
  const auto r = runner::run_usd(x0, 5);
  EXPECT_EQ(r.interactions, engine->elapsed());
  EXPECT_EQ(r.phases.t2, normal.times().t2);
  EXPECT_EQ(r.phases.t5, normal.times().t5);
}

TEST(EdgeCases, ObserveIntervalOfOneSeesEveryProductiveStep) {
  const auto x0 = Configuration::uniform(50, 2, 0);
  const auto engine = sim::Registry::instance().create("every", x0, 9);
  std::uint64_t calls = 0;
  engine->run_observed(1'000'000, 1,
                       [&calls](std::uint64_t, std::span<const pp::Count>,
                                pp::Count) { ++calls; });
  ASSERT_TRUE(engine->is_consensus());
  // Initial + final + one per step.
  EXPECT_GE(calls, engine->elapsed());
}

TEST(EdgeCases, ConfigurationSingleOpinionAllAgents) {
  const Configuration x({42}, 0);
  EXPECT_TRUE(x.is_consensus());
  EXPECT_EQ(x.argmax(), 0);
  EXPECT_EQ(x.second_largest(), 0u);
}

TEST(EdgeCases, UniformWithAllUndecidedRejectedBySimulator) {
  const auto x0 = Configuration::uniform(100, 5, 100);
  EXPECT_THROW(UsdSimulator(x0, rng::Rng(1)), util::CheckError);
  EXPECT_THROW(gossip::GossipUsd(x0, rng::Rng(1)), util::CheckError);
}

}  // namespace
}  // namespace kusd
