// Baseline dynamics (Voter, TwoChoices, j-Majority, MedianRule) update
// rules and their scheduler.
#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <vector>

#include "core/dynamics.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using pp::Configuration;

TEST(Voter, AdoptsSample) {
  core::VoterDynamics voter;
  rng::Rng r(1);
  const std::array<int, 1> sample{3};
  EXPECT_EQ(voter.sample_size(), 1);
  EXPECT_EQ(voter.update(7, sample, r), 3);
  EXPECT_EQ(voter.name(), "Voter");
}

TEST(TwoChoices, LazyTieBreak) {
  core::TwoChoicesDynamics tc;
  rng::Rng r(2);
  EXPECT_EQ(tc.update(7, std::array<int, 2>{3, 3}, r), 3);  // agreement
  EXPECT_EQ(tc.update(7, std::array<int, 2>{3, 4}, r), 7);  // keep own
}

TEST(ThreeMajority, MajorityWins) {
  core::JMajorityDynamics m3(3);
  rng::Rng r(3);
  EXPECT_EQ(m3.sample_size(), 3);
  EXPECT_EQ(m3.name(), "3-Majority");
  EXPECT_EQ(m3.update(9, std::array<int, 3>{5, 2, 5}, r), 5);
  EXPECT_EQ(m3.update(9, std::array<int, 3>{4, 4, 4}, r), 4);
}

TEST(ThreeMajority, ThreeWayTieIsUniform) {
  core::JMajorityDynamics m3(3);
  rng::Rng r(4);
  std::array<int, 3> hits{};
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    const int pick = m3.update(0, std::array<int, 3>{0, 1, 2}, r);
    ASSERT_GE(pick, 0);
    ASSERT_LE(pick, 2);
    ++hits[static_cast<std::size_t>(pick)];
  }
  for (int h : hits) EXPECT_NEAR(h, trials / 3, 500);
}

TEST(JMajority, LargerSamples) {
  core::JMajorityDynamics m5(5);
  rng::Rng r(5);
  EXPECT_EQ(m5.update(0, std::array<int, 5>{2, 1, 2, 3, 2}, r), 2);
  EXPECT_THROW(core::JMajorityDynamics(0), util::CheckError);
}

TEST(MedianRule, MedianOfThree) {
  core::MedianRuleDynamics median;
  rng::Rng r(6);
  EXPECT_EQ(median.update(5, std::array<int, 2>{1, 9}, r), 5);
  EXPECT_EQ(median.update(1, std::array<int, 2>{9, 5}, r), 5);
  EXPECT_EQ(median.update(9, std::array<int, 2>{1, 1}, r), 1);
  EXPECT_EQ(median.update(2, std::array<int, 2>{2, 7}, r), 2);
}

TEST(DynamicsScheduler, ConservesPopulation) {
  core::VoterDynamics voter;
  core::DynamicsScheduler sched(voter, Configuration::uniform(100, 4, 0),
                                rng::Rng(7));
  for (int i = 0; i < 5000 && !sched.is_consensus(); ++i) {
    sched.step();
    std::uint64_t total = 0;
    for (auto c : sched.counts()) total += c;
    ASSERT_EQ(total, 100u);
  }
}

TEST(DynamicsScheduler, RejectsUndecidedAgents) {
  core::VoterDynamics voter;
  EXPECT_THROW(
      core::DynamicsScheduler(voter, Configuration({50, 40}, 10),
                              rng::Rng(8)),
      util::CheckError);
}

// gtest prints the parameter and CTest names each case after the printout,
// so a case prints the dynamics' name rather than an address that changes
// from run to run.
struct DynamicsCase {
  const core::SamplingDynamics* dynamics = nullptr;
  friend void PrintTo(const DynamicsCase& c, std::ostream* os) {
    *os << c.dynamics->name();
  }
};

class DynamicsConvergence : public ::testing::TestWithParam<DynamicsCase> {};

TEST_P(DynamicsConvergence, ReachesConsensusOnSmallPopulations) {
  const auto& dyn = *GetParam().dynamics;
  int converged = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    core::DynamicsScheduler sched(dyn, Configuration::uniform(50, 3, 0),
                                  rng::Rng(seed));
    if (sched.run_to_consensus(5'000'000)) {
      ++converged;
      const int w = sched.consensus_opinion();
      EXPECT_EQ(sched.counts()[static_cast<std::size_t>(w)], 50u);
    }
  }
  EXPECT_EQ(converged, 10);
}

const core::VoterDynamics kVoter;
const core::TwoChoicesDynamics kTwoChoices;
const core::JMajorityDynamics kThreeMajority(3);
const core::MedianRuleDynamics kMedian;

INSTANTIATE_TEST_SUITE_P(AllDynamics, DynamicsConvergence,
                         ::testing::Values(DynamicsCase{&kVoter},
                                           DynamicsCase{&kTwoChoices},
                                           DynamicsCase{&kThreeMajority},
                                           DynamicsCase{&kMedian}));

TEST(DynamicsScheduler, StrongMajorityUsuallyWinsUnderThreeMajority) {
  core::JMajorityDynamics m3(3);
  int wins = 0;
  const int trials = 40;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    core::DynamicsScheduler sched(
        m3, Configuration({700, 150, 150}, 0), rng::Rng(seed));
    ASSERT_TRUE(sched.run_to_consensus(50'000'000));
    wins += sched.consensus_opinion() == 0 ? 1 : 0;
  }
  EXPECT_GE(wins, trials - 2);
}

}  // namespace
}  // namespace kusd
