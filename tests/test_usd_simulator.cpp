// The tuned USD engine: invariants, consensus detection, and the central
// property test that the skip-unproductive engine has the same law as the
// interaction-by-interaction engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using core::StepMode;
using core::UsdOptions;
using core::UsdSimulator;
using pp::Configuration;

std::uint64_t population(const UsdSimulator& sim) {
  std::uint64_t total = sim.undecided();
  for (auto c : sim.opinions()) total += c;
  return total;
}

TEST(UsdSimulator, ConservesPopulationEveryStep) {
  UsdSimulator sim(Configuration::uniform(200, 4, 20), rng::Rng(1));
  for (int i = 0; i < 2000 && !sim.is_consensus(); ++i) {
    sim.step();
    ASSERT_EQ(population(sim), 200u);
  }
}

TEST(UsdSimulator, InteractionsIncreaseMonotonically) {
  UsdSimulator sim(Configuration::uniform(100, 3, 0), rng::Rng(2),
                   UsdOptions{StepMode::kSkipUnproductive});
  std::uint64_t prev = 0;
  for (int i = 0; i < 500 && !sim.is_consensus(); ++i) {
    sim.step();
    ASSERT_GT(sim.interactions(), prev);
    prev = sim.interactions();
  }
}

TEST(UsdSimulator, ReachesConsensusOnTinyPopulation) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    UsdSimulator sim(Configuration::uniform(10, 2, 0), rng::Rng(seed));
    ASSERT_TRUE(sim.run_to_consensus(1'000'000));
    ASSERT_TRUE(sim.is_consensus());
    const int w = sim.consensus_opinion();
    ASSERT_TRUE(w == 0 || w == 1);
    EXPECT_EQ(sim.opinion(w), 10u);
    EXPECT_EQ(sim.undecided(), 0u);
  }
}

TEST(UsdSimulator, DetectsPreexistingConsensus) {
  UsdSimulator sim(Configuration({50, 0}, 0), rng::Rng(3));
  EXPECT_TRUE(sim.is_consensus());
  EXPECT_EQ(sim.consensus_opinion(), 0);
  EXPECT_TRUE(sim.run_to_consensus(10));
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(UsdSimulator, SingleOpinionWithUndecidedConverges) {
  // k = 1: only adoptions can happen; consensus on opinion 0 is certain.
  UsdSimulator sim(Configuration({10}, 90), rng::Rng(4));
  ASSERT_TRUE(sim.run_to_consensus(1'000'000));
  EXPECT_EQ(sim.consensus_opinion(), 0);
}

TEST(UsdSimulator, RejectsAllUndecided) {
  EXPECT_THROW(UsdSimulator(Configuration({0, 0}, 10), rng::Rng(5)),
               util::CheckError);
}

TEST(UsdSimulator, HonorsInteractionCap) {
  UsdSimulator sim(Configuration::uniform(1000, 8, 0), rng::Rng(6));
  EXPECT_FALSE(sim.run_to_consensus(100));
  EXPECT_GE(sim.interactions(), 100u);
}

TEST(UsdSimulator, DeterministicForSameSeed) {
  const auto x0 = Configuration::uniform(500, 5, 50);
  UsdSimulator a(x0, rng::Rng(7)), b(x0, rng::Rng(7));
  a.run_to_consensus(10'000'000);
  b.run_to_consensus(10'000'000);
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_EQ(a.consensus_opinion(), b.consensus_opinion());
}

TEST(UsdSimulator, ConfigurationRoundTrip) {
  const auto x0 = Configuration::with_additive_bias(300, 3, 30, 40);
  UsdSimulator sim(x0, rng::Rng(8));
  const auto snap = sim.configuration();
  EXPECT_EQ(snap.n(), 300u);
  EXPECT_EQ(snap.opinion(0), x0.opinion(0));
  EXPECT_EQ(snap.undecided(), 30u);
}

TEST(UsdSimulator, OverwhelmingBiasWins) {
  // x0 = 90% of agents: opinion 0 must win in every trial.
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    UsdSimulator sim(Configuration({900, 50, 50}, 0), rng::Rng(seed),
                     UsdOptions{StepMode::kSkipUnproductive});
    ASSERT_TRUE(sim.run_to_consensus(100'000'000));
    EXPECT_EQ(sim.consensus_opinion(), 0) << "seed " << seed;
  }
}

// ---- The central engine-equivalence property (design-choice ablation) ----

std::vector<double> consensus_times(const Configuration& x0, StepMode mode,
                                    int trials, std::uint64_t seed_base) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    UsdSimulator sim(
        x0, rng::Rng(rng::stream_seed(seed_base,
                                        static_cast<std::uint64_t>(t))),
        UsdOptions{mode});
    EXPECT_TRUE(sim.run_to_consensus(50'000'000));
    out.push_back(static_cast<double>(sim.interactions()));
  }
  return out;
}

struct EquivalenceCase {
  pp::Count n = 0;
  int k = 0;
  pp::Count undecided = 0;
};

/// The case's name, from its fields: the test names and the printed
/// parameter must not read the struct's padding bytes (uninitialized, so
/// gtest's default byte dump changed from build to build).
std::string case_name(const EquivalenceCase& c) {
  return "n" + std::to_string(c.n) + "_k" + std::to_string(c.k) + "_u" +
         std::to_string(c.undecided);
}

void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << case_name(c);
}

class SkipEquivalenceSweep
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(SkipEquivalenceSweep, SkipEngineMatchesPlainEngineInDistribution) {
  const auto param = GetParam();
  const auto x0 =
      Configuration::uniform(param.n, param.k, param.undecided);
  const int trials = 350;
  const auto plain =
      consensus_times(x0, StepMode::kEveryInteraction, trials, 900);
  const auto skip =
      consensus_times(x0, StepMode::kSkipUnproductive, trials, 901);
  EXPECT_LT(stats::ks_statistic(plain, skip),
            stats::ks_threshold(plain.size(), skip.size(), 0.001))
      << "n=" << param.n << " k=" << param.k;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SkipEquivalenceSweep,
    ::testing::Values(EquivalenceCase{60, 2, 0}, EquivalenceCase{60, 2, 20},
                      EquivalenceCase{80, 4, 0},
                      EquivalenceCase{100, 8, 30}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return case_name(info.param);
    });

TEST(UsdSimulator, SkipAndPlainWinnerFrequenciesAgree) {
  // With a moderate bias the win frequency of opinion 0 must match across
  // engines (binomial 3-sigma band).
  const auto x0 = Configuration::two_opinion(100, 40, 20);  // 40 vs 40 + 20u
  const int trials = 2000;
  int wins_plain = 0, wins_skip = 0;
  for (int t = 0; t < trials; ++t) {
    UsdSimulator a(x0, rng::Rng(rng::stream_seed(77, t)),
                   UsdOptions{StepMode::kEveryInteraction});
    a.run_to_consensus(10'000'000);
    wins_plain += a.consensus_opinion() == 0 ? 1 : 0;
    UsdSimulator b(x0, rng::Rng(rng::stream_seed(78, t)),
                   UsdOptions{StepMode::kSkipUnproductive});
    b.run_to_consensus(10'000'000);
    wins_skip += b.consensus_opinion() == 0 ? 1 : 0;
  }
  // Symmetric start: both should be near 50%, and near each other.
  const double f_plain = static_cast<double>(wins_plain) / trials;
  const double f_skip = static_cast<double>(wins_skip) / trials;
  EXPECT_NEAR(f_plain, f_skip, 0.045);  // ~4 sigma of the difference
  EXPECT_NEAR(f_plain, 0.5, 0.04);
  EXPECT_NEAR(f_skip, 0.5, 0.04);
}

// Golden streams: exact step, interaction and winner counts of both
// stepping modes at n=2000 from uniform starts (k=70 runs on the Fenwick
// index). Any change to the draw sequence of the urn, Rng::bounded or the
// geometric jump moves these numbers.
struct GoldenRun {
  StepMode mode;
  int k;
  std::uint64_t seed;
  std::uint64_t steps;
  std::uint64_t interactions;
  int winner;
};

TEST(UsdSimulator, GoldenStreamsArePinned) {
  constexpr StepMode kEvery = StepMode::kEveryInteraction;
  constexpr StepMode kSkip = StepMode::kSkipUnproductive;
  const GoldenRun pins[] = {
      {kEvery, 2, 1, 37859, 37859, 0},
      {kEvery, 2, 2, 43711, 43711, 1},
      {kEvery, 2, 3, 46758, 46758, 0},
      {kEvery, 4, 1, 63103, 63103, 3},
      {kEvery, 4, 2, 62381, 62381, 3},
      {kEvery, 4, 3, 70255, 70255, 1},
      {kEvery, 16, 1, 102192, 102192, 14},
      {kEvery, 16, 2, 83883, 83883, 6},
      {kEvery, 16, 3, 106119, 106119, 7},
      {kEvery, 70, 1, 102539, 102539, 55},
      {kEvery, 70, 2, 110782, 110782, 49},
      {kEvery, 70, 3, 144899, 144899, 20},
      {kSkip, 2, 1, 11332, 43544, 1},
      {kSkip, 2, 2, 10526, 38909, 0},
      {kSkip, 2, 3, 9486, 41782, 0},
      {kSkip, 4, 1, 23096, 59978, 2},
      {kSkip, 4, 2, 22224, 62982, 1},
      {kSkip, 4, 3, 20958, 59275, 3},
      {kSkip, 16, 1, 46744, 107618, 14},
      {kSkip, 16, 2, 37628, 90840, 9},
      {kSkip, 16, 3, 34764, 83226, 3},
      {kSkip, 70, 1, 62760, 142135, 23},
      {kSkip, 70, 2, 70300, 161638, 41},
      {kSkip, 70, 3, 43796, 106357, 5},
  };
  for (const GoldenRun& pin : pins) {
    const char* mode = pin.mode == kEvery ? "every" : "skip";
    UsdSimulator sim(Configuration::uniform(2000, pin.k, 100),
                     rng::Rng(rng::stream_seed(pin.seed, 0)),
                     UsdOptions{pin.mode});
    std::uint64_t steps = 0;
    for (; !sim.is_consensus() && steps < 100'000'000; ++steps) sim.step();
    EXPECT_EQ(steps, pin.steps) << mode << " k=" << pin.k
                                << " seed=" << pin.seed;
    EXPECT_EQ(sim.interactions(), pin.interactions)
        << mode << " k=" << pin.k << " seed=" << pin.seed;
    ASSERT_TRUE(sim.is_consensus());
    EXPECT_EQ(sim.consensus_opinion(), pin.winner)
        << mode << " k=" << pin.k << " seed=" << pin.seed;
  }
}

}  // namespace
}  // namespace kusd
