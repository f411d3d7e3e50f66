// Gossip-model USD (Appendix D comparator) and the synchronized variant.
#include <gtest/gtest.h>

#include <cmath>

#include "core/sync_usd.hpp"
#include "gossip/gossip_usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using pp::Configuration;

TEST(GossipUsd, RoundConservesPopulation) {
  gossip::GossipUsd g(Configuration::uniform(1000, 5, 100), rng::Rng(1));
  for (int i = 0; i < 50 && !g.is_consensus(); ++i) {
    g.round();
    std::uint64_t total = g.undecided();
    for (auto c : g.counts()) total += c;
    ASSERT_EQ(total, 1000u);
  }
}

TEST(GossipUsd, RejectsAllUndecided) {
  EXPECT_THROW(gossip::GossipUsd(Configuration({0, 0}, 10), rng::Rng(2)),
               util::CheckError);
}

TEST(GossipUsd, DetectsPreexistingConsensus) {
  gossip::GossipUsd g(Configuration({100, 0}, 0), rng::Rng(3));
  EXPECT_TRUE(g.is_consensus());
  EXPECT_EQ(g.consensus_opinion(), 0);
}

TEST(GossipUsd, BiasedTwoOpinionConvergesLogarithmically) {
  // Clementi et al.: O(log n) rounds for k = 2. Allow a generous constant.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    gossip::GossipUsd g(Configuration::two_opinion(100000, 70000, 0),
                        rng::Rng(seed));
    ASSERT_TRUE(g.run_to_consensus(600));
    EXPECT_EQ(g.consensus_opinion(), 0);
    EXPECT_LE(g.rounds(), 60u * 17u);  // ~ c log2(1e5)
  }
}

TEST(GossipUsd, MultiOpinionBiasedPluralityWins) {
  int wins = 0;
  const int trials = 20;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    gossip::GossipUsd g(
        Configuration::with_multiplicative_bias(50000, 8, 0, 2.0),
        rng::Rng(seed));
    ASSERT_TRUE(g.run_to_consensus(5000));
    wins += g.consensus_opinion() == 0 ? 1 : 0;
  }
  EXPECT_GE(wins, trials - 1);
}

TEST(GossipUsd, ConfigurationSnapshot) {
  gossip::GossipUsd g(Configuration::uniform(500, 4, 100), rng::Rng(5));
  g.round();
  const auto snap = g.configuration();
  EXPECT_EQ(snap.n(), 500u);
  EXPECT_EQ(snap.k(), 4);
}

TEST(SyncUsd, RequiresFullyDecidedStart) {
  EXPECT_THROW(core::SyncUsd(Configuration({50, 40}, 10), rng::Rng(6)),
               util::CheckError);
}

TEST(SyncUsd, ConvergesInPolylogSuperRounds) {
  // The synchronized variant converges in polylog rounds regardless of
  // bias; with no initial bias this is its headline advantage.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    core::SyncUsd s(Configuration::uniform(100000, 10, 0), rng::Rng(seed));
    ASSERT_TRUE(s.run_to_consensus(2000));
    EXPECT_LT(s.super_rounds(), 500u);
    EXPECT_GE(s.total_rounds(), s.super_rounds());
  }
}

TEST(SyncUsd, TracksTotalRounds) {
  core::SyncUsd s(Configuration::uniform(10000, 4, 0), rng::Rng(7));
  const std::uint64_t subs = s.super_round();
  EXPECT_EQ(s.super_rounds(), 1u);
  EXPECT_GE(s.total_rounds(), 1u + subs);
}

}  // namespace
}  // namespace kusd
