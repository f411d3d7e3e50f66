// Random-walk closed forms (Appendix A) vs simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>

#include "analysis/random_walk.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

TEST(GamblersRuin, FairWalkBoundaryValues) {
  EXPECT_DOUBLE_EQ(analysis::gamblers_ruin_prob(0.5, 0, 10), 1.0);
  EXPECT_DOUBLE_EQ(analysis::gamblers_ruin_prob(0.5, 10, 10), 0.0);
  EXPECT_DOUBLE_EQ(analysis::gamblers_ruin_prob(0.5, 3, 10), 0.7);
  EXPECT_DOUBLE_EQ(analysis::gamblers_win_prob(0.5, 3, 10), 0.3);
}

TEST(GamblersRuin, BiasedClosedForm) {
  // p = 0.6, a = 2, b = 5: ruin = (rho^5 - rho^2)/(rho^5 - 1), rho = 2/3.
  const double rho = 2.0 / 3.0;
  const double expected = (std::pow(rho, 5) - std::pow(rho, 2)) /
                          (std::pow(rho, 5) - 1.0);
  EXPECT_NEAR(analysis::gamblers_ruin_prob(0.6, 2, 5), expected, 1e-12);
}

TEST(GamblersRuin, FairExpectedDuration) {
  EXPECT_DOUBLE_EQ(analysis::gamblers_expected_duration(0.5, 3, 10),
                   3.0 * 7.0);
}

struct WalkCase {
  double p = 0.0;
  std::uint64_t a = 0, b = 0;
};

class GamblersRuinSweep : public ::testing::TestWithParam<WalkCase> {};

TEST_P(GamblersRuinSweep, SimulationMatchesFormula) {
  const auto [p, a, b] = GetParam();
  rng::Rng r(314159 + a * 1000 + b);
  const int trials = 40000;
  int wins = 0;
  double total_steps = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::uint64_t steps = 0;
    wins += analysis::simulate_gamblers_ruin(p, a, b, r, &steps) ? 1 : 0;
    total_steps += static_cast<double>(steps);
  }
  const double expect_win = analysis::gamblers_win_prob(p, a, b);
  const double se = std::sqrt(expect_win * (1 - expect_win) / trials) + 1e-6;
  EXPECT_NEAR(static_cast<double>(wins) / trials, expect_win, 5 * se);
  const double expect_dur = analysis::gamblers_expected_duration(p, a, b);
  EXPECT_NEAR(total_steps / trials, expect_dur, 0.05 * expect_dur + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Walks, GamblersRuinSweep,
                         ::testing::Values(WalkCase{0.5, 5, 10},
                                           WalkCase{0.5, 2, 20},
                                           WalkCase{0.6, 3, 12},
                                           WalkCase{0.45, 8, 16},
                                           WalkCase{0.7, 2, 30},
                                           WalkCase{0.55, 4, 16}));

TEST(ReflectingWalk, TailFormulaBoundsSimulatedMaxima) {
  // Lemma 18: Pr[max over horizon >= m] <= horizon * (p/q)^m. The bound
  // exceeds 1 at levels 4, 8 and 12; it binds at level 20.
  struct Case {
    std::uint64_t m, horizon;
  };
  const double p = 0.3, q = 0.5;
  rng::Rng r(2718);
  const int trials = 4000;
  for (const auto [m, horizon] :
       {Case{12, 2000}, Case{4, 3000}, Case{8, 3000}, Case{12, 3000},
        Case{20, 2000}}) {
    int exceed = 0;
    for (int t = 0; t < trials; ++t) {
      if (analysis::simulate_reflecting_max(p, q, horizon, r) >= m) ++exceed;
    }
    const double bound = static_cast<double>(horizon) *
                         analysis::reflecting_tail(p, q, m);
    // The bound must hold (with slack for MC noise).
    EXPECT_LE(static_cast<double>(exceed) / trials, bound + 0.01)
        << "m=" << m << " horizon=" << horizon;
  }
}

TEST(ReflectingWalk, TailDecreasesGeometrically) {
  const double t4 = analysis::reflecting_tail(0.2, 0.4, 4);
  const double t8 = analysis::reflecting_tail(0.2, 0.4, 8);
  EXPECT_NEAR(t8, t4 * t4, 1e-12);
}

TEST(ExcessFailures, Lemma19BoundHolds) {
  // Simulate sequences and check the ruin-style bound empirically.
  const double p = 0.7;
  const std::uint64_t b = 5;
  rng::Rng r(999);
  const int trials = 20000;
  const int horizon = 3000;
  int violated = 0;
  for (int t = 0; t < trials; ++t) {
    int excess = 0;  // failures - successes; may go arbitrarily negative
    bool hit = false;
    for (int i = 0; i < horizon; ++i) {
      excess += r.bernoulli(p) ? -1 : 1;
      if (excess >= static_cast<int>(b)) {
        hit = true;
        break;
      }
    }
    violated += hit ? 1 : 0;
  }
  EXPECT_LE(static_cast<double>(violated) / trials,
            analysis::excess_failure_prob(p, b) + 0.01);
}

TEST(DriftBound, Theorem3Shape) {
  // T <= ceil((r + ln(s0/smin))/delta): doubling s0 adds ln 2 / delta.
  const double t1 = analysis::drift_time_bound(3.0, 100.0, 1.0, 0.01);
  const double t2 = analysis::drift_time_bound(3.0, 200.0, 1.0, 0.01);
  EXPECT_NEAR(t2 - t1, std::log(2.0) / 0.01, 1.0);
  EXPECT_THROW(static_cast<void>(analysis::drift_time_bound(1.0, 1.0, 1.0, 0.0)),
               util::CheckError);
}

TEST(TwoLevelWalk, Lemma21LogarithmicAbsorption) {
  // The Lemma 21 walk reaches log log n in O(log n) steps w.h.p. Level l
  // is climbed w.p. 1 - exp(-2^l), so a fall back to 0 is rare: the
  // average absorption time is at least one and under two steps per level.
  rng::Rng r(777);
  const int trials = 2000;
  for (const std::uint64_t levels : {6, 3, 4, 5}) {
    double mean = 0.0;
    for (int t = 0; t < trials; ++t) {
      mean += static_cast<double>(
          analysis::simulate_two_level_walk(0.5, levels, 1'000'000, r));
    }
    mean /= trials;
    EXPECT_GE(mean, static_cast<double>(levels)) << levels;
    EXPECT_LT(mean, 2.0 * static_cast<double>(levels)) << levels;
  }
}

}  // namespace
}  // namespace kusd
