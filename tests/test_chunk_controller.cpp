// ChunkController: fixed-policy bit-compatibility, adaptive step-size
// behaviour across regimes, and the property that the adaptive batched
// engine matches the exact asynchronous chain in distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

// The flat chain's raw tau bound at kDriftTolerance, in the controller's
// order of operations: the largest chunk keeping every count's predicted
// drift and fluctuation inside its tolerance band, capped at max_chunk.
double raw_tau_bound(const std::vector<pp::Count>& opinions,
                     pp::Count undecided, std::uint64_t max_chunk) {
  double decided = 0.0, cross = 0.0;
  for (const pp::Count x : opinions) {
    decided += static_cast<double>(x);
    cross += static_cast<double>(x) * static_cast<double>(x);
  }
  const double u = static_cast<double>(undecided);
  const double total = u + decided;
  const double inv_w2 = 1.0 / (total * total);
  double bound = static_cast<double>(max_chunk);
  const auto band = [&bound](double count, double gain, double loss) {
    const double width = std::max(core::kDriftTolerance * count, 1.0);
    if (gain != loss) bound = std::min(bound, width / std::abs(gain - loss));
    if (gain + loss > 0.0) {
      bound = std::min(bound, width * width / (gain + loss));
    }
  };
  for (const pp::Count count : opinions) {
    const double x = static_cast<double>(count);
    band(x, 1.0 * u * x * inv_w2, 1.0 * x * (decided - x) * inv_w2);
  }
  band(u, 1.0 * (decided * decided - cross) * inv_w2,
       1.0 * u * decided * inv_w2);
  return bound;
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
  // ramp up geometrically (at most kChunkGrowFactor per step) from the floor
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
    EXPECT_LE(next, 2 * prev);  // kChunkGrowFactor
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

TEST(ChunkController, AdaptivePlateauIsTheToleranceBound) {
  // Past the growth ramp, a constant state is proposed its tau bound at
  // kDriftTolerance: the drift band of the minority binds here, far
  // below the kMaxChunkFraction ceiling.
  const pp::Count n = 100000;
  ChunkController c(adaptive_options(), n);
  const std::vector<pp::Count> opinions = {60000, 30000};
  const pp::Count undecided = 10000;
  std::uint64_t plateau = 0;
  for (int i = 0; i < 64; ++i) plateau = c.propose(opinions, undecided);
  const double bound = raw_tau_bound(opinions, undecided, c.max_chunk());
  EXPECT_LT(bound, static_cast<double>(c.max_chunk()) / 10);
  EXPECT_EQ(plateau, static_cast<std::uint64_t>(std::floor(bound)));
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
  // The floor is one interaction, the exact chain; the ceiling is
  // kMaxChunkFraction of n.
  const pp::Count n = 100000;
  ChunkController c(adaptive_options(), n);
  EXPECT_EQ(c.max_chunk(), 50000u);
  // Even a state demanding tiny chunks is floored at one interaction...
  const std::vector<pp::Count> near_consensus = {99999, 1};
  EXPECT_GE(c.propose(near_consensus, 0), 1u);
  // ...and a state that bounds nothing (consensus: no count moves) ramps
  // up to the ceiling and stays there.
  const std::vector<pp::Count> consensus = {100000, 0};
  std::uint64_t last = 0;
  for (int i = 0; i < 64; ++i) {
    last = c.propose(consensus, 0);
    EXPECT_LE(last, c.max_chunk());
  }
  EXPECT_EQ(last, c.max_chunk());
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
  // The PI-style lookahead: on a trajectory whose tau bound is falling (a
  // minority collapsing toward absorption), the EWMA trend turns
  // negative and the controller proposes less than the state's own bound,
  // anticipating the next drop instead of reacting one chunk late. Held
  // at the last state, the trend decays and the proposal recovers.
  const pp::Count n = 1'000'000;
  ChunkController c(adaptive_options(), n);
  const std::vector<pp::Count> flat = {400000, 400000};
  for (int i = 0; i < 64; ++i) (void)c.propose(flat, 200000);
  std::vector<pp::Count> state;
  pp::Count undecided = 0;
  std::uint64_t anticipated = 0;
  for (pp::Count minority = 200000; minority >= 1000; minority /= 2) {
    state = {n - 2 * minority, minority};
    undecided = minority;
    anticipated = c.propose(state, undecided);
  }
  EXPECT_LT(static_cast<double>(anticipated),
            std::floor(raw_tau_bound(state, undecided, c.max_chunk())));
  std::uint64_t settled = 0;
  for (int i = 0; i < 64; ++i) settled = c.propose(state, undecided);
  EXPECT_GT(settled, anticipated);
}

TEST(ChunkController, TrendIsInertInFlatRegimes) {
  // A constant observation sequence has zero trend: past the growth ramp
  // the proposal is exactly the state's tau bound, so the lookahead costs
  // nothing where an instantaneous controller is already right.
  const pp::Count n = 500000;
  ChunkController c(adaptive_options(), n);
  const std::vector<pp::Count> flat = {150000, 150000};
  const auto bound = static_cast<std::uint64_t>(
      std::floor(raw_tau_bound(flat, 200000, c.max_chunk())));
  std::uint64_t prev = 0;
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t next = c.propose(flat, 200000);
    EXPECT_GE(next, prev);
    EXPECT_LE(next, bound);
    prev = next;
  }
  EXPECT_EQ(prev, bound);
}

TEST(ChunkController, RejectsInvalidOptions) {
  const pp::Count n = 1000;
  EXPECT_THROW(ChunkController(ChunkOptions{.chunk_fraction = 0.0}, n),
               util::CheckError);
  EXPECT_THROW(ChunkController(ChunkOptions{.chunk_fraction = 1.5}, n),
               util::CheckError);
  ChunkOptions bad = adaptive_options();
  bad.chunk_fraction = -0.1;
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
