// ChunkController: fixed-policy bit-compatibility, adaptive step-size
// behaviour across regimes, and the property that the adaptive batched
// engine matches the exact asynchronous chain in distribution.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/batched_usd.hpp"
#include "core/chunk_controller.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using core::AdaptiveChunkOptions;
using core::BatchedUsdSimulator;
using core::ChunkController;
using core::ChunkOptions;
using core::ChunkPolicy;
using core::StepMode;
using core::UsdOptions;
using core::UsdSimulator;
using pp::Configuration;

ChunkOptions adaptive_options() {
  ChunkOptions options;
  options.policy = ChunkPolicy::kAdaptive;
  return options;
}

TEST(ChunkController, FixedPolicyProposesTheConstantChunk) {
  // Bit-compat with the PR-2 engine: the same max(1, round(f * n)).
  ChunkController c(ChunkOptions{.chunk_fraction = 0.02}, 10000);
  const Configuration x0 = Configuration::uniform(10000, 4, 1000);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(c.propose(x0.opinions(), x0.undecided()), 200u);
  }
  ChunkController tiny(ChunkOptions{.chunk_fraction = 1e-9}, 100);
  EXPECT_EQ(tiny.propose(x0.opinions(), x0.undecided()), 1u);
}

TEST(ChunkController, FixedPolicyIgnoresRejectFeedback) {
  ChunkController c(ChunkOptions{.chunk_fraction = 0.1}, 1000);
  const Configuration x0 = Configuration::uniform(1000, 2, 0);
  c.on_reject();
  EXPECT_EQ(c.propose(x0.opinions(), x0.undecided()), 100u);
}

TEST(ChunkController, AdaptiveGrowsGeometricallyInAFlatRegime) {
  // In a balanced mid-run state the rates drift slowly: the proposal must
  // ramp up geometrically (at most grow_factor per step) from the floor
  // and plateau at an error bound far above the fixed 2% default.
  const pp::Count n = 1'000'000;
  ChunkController c(adaptive_options(), n);
  // Balanced two-opinion state with half the population undecided.
  const std::vector<pp::Count> opinions = {250000, 250000};
  const pp::Count undecided = 500000;
  std::uint64_t prev = c.propose(opinions, undecided);
  std::uint64_t plateau = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t next = c.propose(opinions, undecided);
    EXPECT_LE(next, c.max_chunk());
    EXPECT_LE(next, 2 * prev);  // default grow_factor
    EXPECT_GE(next, prev);      // the state never tightens mid-ramp
    if (next == prev) {
      plateau = next;
      break;
    }
    prev = next;
  }
  // For this state the tau bound is ~0.2 n — an order of magnitude above
  // the fixed default and below the 0.5 n ceiling.
  EXPECT_GT(plateau, n / 10);
  EXPECT_LT(plateau, c.max_chunk());
}

TEST(ChunkController, GrowthBelowTwoStillRamps) {
  // floor(1 * g) == 1 for g in (1, 2): without the one-interaction
  // minimum step the schedule would stay pinned at the initial chunk of
  // 1 forever. The cap must grow by at least one interaction per step.
  const pp::Count n = 1'000'000;
  ChunkOptions options = adaptive_options();
  options.adaptive.grow_factor = 1.5;
  ChunkController c(options, n);
  const std::vector<pp::Count> opinions = {250000, 250000};
  const pp::Count undecided = 500000;
  std::uint64_t prev = c.propose(opinions, undecided);
  EXPECT_EQ(prev, 2u);  // max(1 + 1, floor(1.5))
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t next = c.propose(opinions, undecided);
    EXPECT_GT(next, prev) << "step " << i;
    prev = next;
  }
}

TEST(ChunkController, AdaptiveShrinksNearAbsorption) {
  // Near consensus the minority count is tiny and its relative drift per
  // interaction is large: the bound must fall well below the ceiling,
  // scaling like n / minority.
  const pp::Count n = 1'000'000;
  ChunkController warm(adaptive_options(), n);
  const std::vector<pp::Count> near_consensus = {999000, 1000};
  // Warm the controller up far from absorption so the growth rate-limit
  // is not what is being measured.
  const std::vector<pp::Count> flat = {250000, 250000};
  for (int i = 0; i < 64; ++i) (void)warm.propose(flat, 500000);
  const std::uint64_t proposal = warm.propose(near_consensus, 0);
  EXPECT_LT(proposal, warm.max_chunk() / 4);
}

TEST(ChunkController, AdaptiveTightensWithTolerance) {
  const pp::Count n = 100000;
  ChunkOptions loose = adaptive_options();
  loose.adaptive.drift_tolerance = 0.2;
  ChunkOptions tight = adaptive_options();
  tight.adaptive.drift_tolerance = 0.01;
  ChunkController a(loose, n), b(tight, n);
  const std::vector<pp::Count> opinions = {60000, 30000};
  const pp::Count undecided = 10000;
  // Warm both controllers past the growth ramp.
  std::uint64_t la = 0, lb = 0;
  for (int i = 0; i < 64; ++i) {
    la = a.propose(opinions, undecided);
    lb = b.propose(opinions, undecided);
  }
  EXPECT_GT(la, lb);
}

TEST(ChunkController, RejectHalvesTheAdaptiveBaseline) {
  const pp::Count n = 1'000'000;
  ChunkController c(adaptive_options(), n);
  const std::vector<pp::Count> flat = {250000, 250000};
  for (int i = 0; i < 64; ++i) (void)c.propose(flat, 500000);
  const std::uint64_t before = c.propose(flat, 500000);
  c.on_reject();
  const std::uint64_t after = c.propose(flat, 500000);
  EXPECT_LE(after, before);  // growth restarts from the halved baseline
  EXPECT_GE(after, before / 2);
}

TEST(ChunkController, RespectsMinAndMaxFractions) {
  ChunkOptions options = adaptive_options();
  options.adaptive.min_fraction = 0.01;
  options.adaptive.max_fraction = 0.05;
  const pp::Count n = 100000;
  ChunkController c(options, n);
  EXPECT_EQ(c.min_chunk(), 1000u);
  EXPECT_EQ(c.max_chunk(), 5000u);
  // Even a state demanding tiny chunks is floored at min_chunk...
  const std::vector<pp::Count> near_consensus = {99999, 1};
  EXPECT_GE(c.propose(near_consensus, 0), c.min_chunk());
  // ...and a flat state is capped at max_chunk.
  const std::vector<pp::Count> flat = {25000, 25000};
  for (int i = 0; i < 64; ++i) {
    EXPECT_LE(c.propose(flat, 50000), c.max_chunk());
  }
}

TEST(ChunkController, ProposalsAreDeterministic) {
  // Same options, same observation sequence -> same proposals (the
  // controller draws no randomness).
  const pp::Count n = 500000;
  ChunkController a(adaptive_options(), n), b(adaptive_options(), n);
  const std::vector<pp::Count> opinions = {200000, 100000, 50000};
  for (pp::Count u : {pp::Count{150000}, pp::Count{100000}, pp::Count{0}}) {
    EXPECT_EQ(a.propose(opinions, u), b.propose(opinions, u));
  }
}

TEST(ChunkController, TrendLookaheadShrinksBeforeATransition) {
  // The PI-style satellite: on a trajectory whose tau bound is falling
  // (a minority collapsing toward absorption), the smoothed controller
  // must propose smaller chunks than a purely instantaneous one fed the
  // same observations — it anticipates the next drop instead of reacting
  // one chunk late.
  const pp::Count n = 1'000'000;
  ChunkOptions smoothed = adaptive_options();  // default trend_alpha
  ChunkOptions instantaneous = adaptive_options();
  instantaneous.adaptive.trend_alpha = 0.0;
  ChunkController with_trend(smoothed, n), without_trend(instantaneous, n);
  // Warm both controllers in the same flat state.
  const std::vector<pp::Count> flat = {400000, 400000};
  for (int i = 0; i < 64; ++i) {
    (void)with_trend.propose(flat, 200000);
    (void)without_trend.propose(flat, 200000);
  }
  // Minority collapsing by 2x per observation: the bound falls every
  // step, so the EWMA trend turns negative and stays there.
  bool anticipated = false;
  for (pp::Count minority = 200000; minority >= 1000; minority /= 2) {
    const std::vector<pp::Count> state = {n - 2 * minority, minority};
    const std::uint64_t a = with_trend.propose(state, minority);
    const std::uint64_t b = without_trend.propose(state, minority);
    EXPECT_LE(a, b);
    anticipated = anticipated || a < b;
  }
  EXPECT_TRUE(anticipated);
}

TEST(ChunkController, TrendIsInertInFlatRegimes) {
  // A constant observation sequence has zero trend: the smoothed and
  // instantaneous controllers must agree exactly, so the lookahead costs
  // nothing where the PR-3 controller was already right.
  const pp::Count n = 500000;
  ChunkOptions instantaneous = adaptive_options();
  instantaneous.adaptive.trend_alpha = 0.0;
  ChunkController a(adaptive_options(), n), b(instantaneous, n);
  const std::vector<pp::Count> flat = {150000, 150000};
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.propose(flat, 200000), b.propose(flat, 200000));
  }
}

TEST(ChunkController, RejectsInvalidOptions) {
  const pp::Count n = 1000;
  EXPECT_THROW(ChunkController(ChunkOptions{.chunk_fraction = 0.0}, n),
               util::CheckError);
  EXPECT_THROW(ChunkController(ChunkOptions{.chunk_fraction = 1.5}, n),
               util::CheckError);
  ChunkOptions bad = adaptive_options();
  bad.adaptive.drift_tolerance = 0.0;
  EXPECT_THROW(ChunkController(bad, n), util::CheckError);
  bad = adaptive_options();
  bad.adaptive.min_fraction = 0.6;
  bad.adaptive.max_fraction = 0.5;
  EXPECT_THROW(ChunkController(bad, n), util::CheckError);
  bad = adaptive_options();
  bad.adaptive.max_fraction = 1.5;
  EXPECT_THROW(ChunkController(bad, n), util::CheckError);
  bad = adaptive_options();
  bad.adaptive.grow_factor = 1.0;
  EXPECT_THROW(ChunkController(bad, n), util::CheckError);
  bad = adaptive_options();
  bad.adaptive.trend_alpha = 1.0;
  EXPECT_THROW(ChunkController(bad, n), util::CheckError);
  bad.adaptive.trend_alpha = -0.1;
  EXPECT_THROW(ChunkController(bad, n), util::CheckError);
}

TEST(ChunkController, PolicyNamesRoundTrip) {
  for (const auto policy : {ChunkPolicy::kFixed, ChunkPolicy::kAdaptive}) {
    const auto parsed = core::parse_chunk_policy(core::to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(core::parse_chunk_policy("psychic").has_value());
}

// ---- Adaptive engine behaviour end to end ----

TEST(AdaptiveBatched, DeterministicForSameSeed) {
  const auto x0 = Configuration::uniform(50000, 5, 500);
  BatchedUsdSimulator a(x0, rng::Rng(7), adaptive_options());
  BatchedUsdSimulator b(x0, rng::Rng(7), adaptive_options());
  a.run_to_consensus(~std::uint64_t{0});
  b.run_to_consensus(~std::uint64_t{0});
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_EQ(a.chunks(), b.chunks());
  EXPECT_EQ(a.consensus_opinion(), b.consensus_opinion());
}

TEST(AdaptiveBatched, TakesFewerChunksThanTheFixedDefault) {
  // The point of the controller: flat regimes take much larger chunks, so
  // a full run needs far fewer multinomial draws at the same accuracy.
  const auto x0 = Configuration::uniform(2'000'000, 8, 0);
  BatchedUsdSimulator fixed(x0, rng::Rng(11), ChunkOptions{});
  BatchedUsdSimulator adaptive(x0, rng::Rng(11), adaptive_options());
  ASSERT_TRUE(fixed.run_to_consensus(~std::uint64_t{0}));
  ASSERT_TRUE(adaptive.run_to_consensus(~std::uint64_t{0}));
  EXPECT_LT(adaptive.chunks(), fixed.chunks() / 2);
}

TEST(AdaptiveBatched, SlowGrowthFinishesInBoundedChunks) {
  // grow_factor 1.5 once pinned the chunk at one interaction: a run at
  // n = 5e4 took ~n * 46 single-interaction chunks. Ramping at 1.5x per
  // step, it needs about as few chunks as the default 2x ramp.
  const auto x0 = Configuration::uniform(50000, 4, 0);
  ChunkOptions options = adaptive_options();
  options.adaptive.grow_factor = 1.5;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    BatchedUsdSimulator sim(x0, rng::Rng(seed), options);
    ASSERT_TRUE(sim.run_to_consensus(~std::uint64_t{0}));
    EXPECT_LT(sim.chunks(), 20000u) << "seed " << seed;
  }
}

TEST(AdaptiveBatched, TinyPopulationsTerminate) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    BatchedUsdSimulator sim(Configuration({1, 1}, 0), rng::Rng(seed),
                            adaptive_options());
    ASSERT_TRUE(sim.run_to_consensus(~std::uint64_t{0}));
    EXPECT_EQ(sim.undecided(), 0u);
  }
}

// ---- KS property tests: adaptive vs the exact chain ----

std::vector<double> exact_times(const Configuration& x0, int trials,
                                std::uint64_t seed_base) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    UsdSimulator sim(
        x0, rng::Rng(rng::stream_seed(seed_base,
                                      static_cast<std::uint64_t>(t))),
        UsdOptions{StepMode::kEveryInteraction});
    EXPECT_TRUE(sim.run_to_consensus(100'000'000));
    out.push_back(static_cast<double>(sim.interactions()));
  }
  return out;
}

std::vector<double> adaptive_times(const Configuration& x0, int trials,
                                   std::uint64_t seed_base) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    BatchedUsdSimulator sim(
        x0, rng::Rng(rng::stream_seed(seed_base,
                                      static_cast<std::uint64_t>(t))),
        adaptive_options());
    EXPECT_TRUE(sim.run_to_consensus(100'000'000));
    out.push_back(static_cast<double>(sim.interactions()));
  }
  return out;
}

TEST(AdaptiveBatched, MatchesExactChainInAFlatRegime) {
  // Uniform start: the regime where the controller takes its largest
  // chunks, so this is the harshest accuracy check.
  const auto x0 = Configuration::uniform(400, 3, 0);
  const int trials = 350;
  const auto exact = exact_times(x0, trials, 3100);
  const auto adaptive = adaptive_times(x0, trials, 3101);
  EXPECT_LT(stats::ks_statistic(exact, adaptive),
            stats::ks_threshold(exact.size(), adaptive.size(), 0.001));
}

TEST(AdaptiveBatched, MatchesExactChainNearConsensus) {
  // Near-absorbing start (strong majority, small minority): chunks must
  // shrink toward the exact chain or the absorption-time tail distorts.
  const auto x0 = Configuration({440, 40}, 20);
  const int trials = 350;
  const auto exact = exact_times(x0, trials, 3200);
  const auto adaptive = adaptive_times(x0, trials, 3201);
  EXPECT_LT(stats::ks_statistic(exact, adaptive),
            stats::ks_threshold(exact.size(), adaptive.size(), 0.001));
}

TEST(AdaptiveBatched, WinnerFrequenciesMatchExactChain) {
  const auto x0 = Configuration::two_opinion(500, 260, 0);  // mild bias
  const int trials = 1000;
  int wins_exact = 0, wins_adaptive = 0;
  for (int t = 0; t < trials; ++t) {
    UsdSimulator a(x0, rng::Rng(rng::stream_seed(3300, t)),
                   UsdOptions{StepMode::kSkipUnproductive});
    ASSERT_TRUE(a.run_to_consensus(100'000'000));
    wins_exact += a.consensus_opinion() == 0 ? 1 : 0;
    BatchedUsdSimulator b(x0, rng::Rng(rng::stream_seed(3301, t)),
                          adaptive_options());
    ASSERT_TRUE(b.run_to_consensus(100'000'000));
    wins_adaptive += b.consensus_opinion() == 0 ? 1 : 0;
  }
  const double f_exact = static_cast<double>(wins_exact) / trials;
  const double f_adaptive = static_cast<double>(wins_adaptive) / trials;
  EXPECT_NEAR(f_exact, f_adaptive, 0.06);
}

}  // namespace
}  // namespace kusd
