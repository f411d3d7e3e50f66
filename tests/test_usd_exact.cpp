// Exact k-opinion solver: pinned k = 2 values, hand-checked small chains,
// symmetry and monotonicity properties, and Monte-Carlo agreement for
// k = 2 and k = 3 — ground truth with no asymptotic hedging.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/usd_exact.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using analysis::UsdExactSolver;

TEST(UsdExactSolver, PinsTwoOpinionValues) {
  // k = 2 at n = 12, pinned to the values of the former dedicated
  // two-opinion solver (the win probabilities are exact dyadic rationals).
  struct Pin {
    pp::Count x0, x1;
    double time, win0;
  };
  constexpr Pin kPins[] = {
      {1, 0, 72.4770562770563, 1.0},
      {9, 0, 25.6242424242424, 1.0},
      {1, 1, 91.0992676177893, 0.5},
      {6, 6, 98.0609577703323, 0.5},
      {2, 1, 85.7614887518626, 0.75},
      {4, 2, 83.6389512395104, 0.8125},
      {7, 3, 74.7462739182330, 233.0 / 256.0},
      {11, 1, 30.8681050364949, 2047.0 / 2048.0},
  };
  UsdExactSolver solver(12, 2);
  for (const auto& pin : kPins) {
    EXPECT_NEAR(solver.expected_consensus_time({pin.x0, pin.x1}), pin.time,
                1e-6)
        << pin.x0 << "," << pin.x1;
    EXPECT_NEAR(solver.win_probability({pin.x0, pin.x1}, 0), pin.win0, 1e-9)
        << pin.x0 << "," << pin.x1;
  }
}

TEST(UsdExactSolver, WinProbabilitiesSumToOne) {
  UsdExactSolver solver(10, 3);
  for (const auto& x : {std::vector<pp::Count>{3, 3, 3},
                        std::vector<pp::Count>{5, 2, 1},
                        std::vector<pp::Count>{1, 1, 1},
                        std::vector<pp::Count>{8, 1, 1}}) {
    double total = 0.0;
    for (int i = 0; i < 3; ++i) total += solver.win_probability(x, i);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(UsdExactSolver, SymmetricOpinionsHaveEqualWinProbability) {
  UsdExactSolver solver(9, 3);
  const std::vector<pp::Count> x{3, 3, 3};
  const double w0 = solver.win_probability(x, 0);
  EXPECT_NEAR(w0, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(solver.win_probability(x, 1), w0, 1e-9);
  EXPECT_NEAR(solver.win_probability(x, 2), w0, 1e-9);
  // Partial symmetry: opinions 1 and 2 tied below opinion 0.
  const std::vector<pp::Count> y{5, 2, 2};
  EXPECT_NEAR(solver.win_probability(y, 1), solver.win_probability(y, 2),
              1e-9);
  EXPECT_GT(solver.win_probability(y, 0), solver.win_probability(y, 1));
}

TEST(UsdExactSolver, ZeroSupportNeverWins) {
  UsdExactSolver solver(8, 3);
  const std::vector<pp::Count> x{5, 3, 0};
  EXPECT_DOUBLE_EQ(solver.win_probability(x, 2), 0.0);
}

TEST(UsdExactSolver, MoreUndecidedMeansLongerRun) {
  UsdExactSolver solver(12, 2);
  // Same supports, more undecided agents: strictly more work remains.
  EXPECT_GT(solver.expected_consensus_time({4, 2}),
            solver.expected_consensus_time({8, 4}) * 0.5);
  EXPECT_GT(solver.expected_consensus_time({2, 1}),
            solver.expected_consensus_time({8, 4}));
}

TEST(UsdExactSolver, RejectsBadQueries) {
  UsdExactSolver solver(6, 2);
  EXPECT_THROW((void)solver.win_probability({0, 0}, 0), util::CheckError);
  EXPECT_THROW((void)solver.win_probability({3, 2}, 5), util::CheckError);
  EXPECT_THROW((void)solver.expected_consensus_time({7, 0}),
               util::CheckError);
  EXPECT_THROW(UsdExactSolver(100, 4), util::CheckError);  // too large
}

TEST(UsdExactSolver, ThreeOpinionMonteCarloAgreement) {
  const pp::Count n = 9;
  UsdExactSolver solver(n, 3);
  const std::vector<pp::Count> start{4, 2, 1};  // u = 2
  const double exact_time = solver.expected_consensus_time(start);
  const double exact_w0 = solver.win_probability(start, 0);

  const pp::Configuration x0(start, n - 7);
  const int trials = 30000;
  double time_total = 0.0;
  int wins0 = 0;
  for (int t = 0; t < trials; ++t) {
    core::UsdSimulator sim(x0, rng::Rng(rng::stream_seed(31337, t)));
    ASSERT_TRUE(sim.run_to_consensus(10'000'000));
    time_total += static_cast<double>(sim.interactions());
    wins0 += sim.consensus_opinion() == 0 ? 1 : 0;
  }
  EXPECT_NEAR(time_total / trials, exact_time, 0.03 * exact_time);
  const double se = std::sqrt(exact_w0 * (1 - exact_w0) / trials);
  EXPECT_NEAR(static_cast<double>(wins0) / trials, exact_w0, 5 * se);
}

// Theorem 2's bias threshold, exactly: the win probability of the
// plurality grows monotonically with the additive bias.
TEST(UsdExactSolver, WinProbabilityMonotoneInBias) {
  const pp::Count n = 14;
  UsdExactSolver solver(n, 2);
  double prev = 0.0;
  for (pp::Count x0 = 7; x0 <= 14; ++x0) {
    const double w = solver.win_probability({x0, 14 - x0}, 0);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

// ---- Two-opinion chains (k = 2) ----

TEST(MarkovExact, TrivialTwoAgents) {
  UsdExactSolver solver(2, 2);
  // (2,0) and (0,2) are absorbing.
  EXPECT_DOUBLE_EQ(solver.expected_consensus_time({2, 0}), 0.0);
  EXPECT_DOUBLE_EQ(solver.win_probability({2, 0}, 0), 1.0);
  EXPECT_DOUBLE_EQ(solver.win_probability({0, 2}, 0), 0.0);
  // (1,0): the undecided agent must adopt opinion 0; consensus certain.
  EXPECT_DOUBLE_EQ(solver.win_probability({1, 0}, 0), 1.0);
  // From (1,0) with u=1: a productive interaction happens w.p.
  // u*x0/n^2 = 1/4, so E[T] = 4.
  EXPECT_DOUBLE_EQ(solver.expected_consensus_time({1, 0}), 4.0);
}

TEST(MarkovExact, SymmetricStartIsFair) {
  for (pp::Count n : {4, 8, 12}) {
    UsdExactSolver solver(n, 2);
    EXPECT_NEAR(solver.win_probability({n / 2, n / 2}, 0), 0.5, 1e-9) << n;
  }
}

TEST(MarkovExact, WinProbabilityMonotoneInSupport) {
  UsdExactSolver solver(12, 2);
  double prev = -1.0;
  for (pp::Count x0 = 1; x0 <= 11; ++x0) {
    const double w = solver.win_probability({x0, 12 - x0}, 0);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

TEST(MarkovExact, UndecidedAgentsPreserveFairness) {
  // Equal supports with undecided agents remain a fair race by symmetry.
  UsdExactSolver solver(10, 2);
  EXPECT_NEAR(solver.win_probability({3, 3}, 0), 0.5, 1e-9);
  EXPECT_NEAR(solver.win_probability({1, 1}, 0), 0.5, 1e-9);
}

TEST(MarkovExact, RejectsAllUndecidedQuery) {
  UsdExactSolver solver(6, 2);
  EXPECT_THROW(static_cast<void>(solver.win_probability({0, 0}, 0)),
               util::CheckError);
  EXPECT_THROW(UsdExactSolver(1, 2), util::CheckError);
}

struct ExactVsMcCase {
  pp::Count n = 0, x0 = 0, x1 = 0;
};

class ExactVsMonteCarlo : public ::testing::TestWithParam<ExactVsMcCase> {};

TEST_P(ExactVsMonteCarlo, ExpectedTimeAndWinProbMatch) {
  const auto param = GetParam();
  UsdExactSolver solver(param.n, 2);
  const double exact_time =
      solver.expected_consensus_time({param.x0, param.x1});
  const double exact_win = solver.win_probability({param.x0, param.x1}, 0);

  const pp::Configuration start({param.x0, param.x1},
                                param.n - param.x0 - param.x1);
  const int trials = 40000;
  stats::Samples times;
  int wins = 0;
  for (int t = 0; t < trials; ++t) {
    core::UsdSimulator sim(
        start, rng::Rng(rng::stream_seed(4242, t)),
        core::UsdOptions{core::StepMode::kSkipUnproductive});
    ASSERT_TRUE(sim.run_to_consensus(100'000'000));
    times.add(static_cast<double>(sim.interactions()));
    wins += sim.consensus_opinion() == 0 ? 1 : 0;
  }
  // Mean within 5 standard errors of the exact value.
  EXPECT_NEAR(times.mean(), exact_time,
              5.0 * times.stddev() / std::sqrt(trials) + 1e-9);
  const double win_se =
      std::sqrt(exact_win * (1.0 - exact_win) / trials) + 1e-6;
  EXPECT_NEAR(static_cast<double>(wins) / trials, exact_win, 5.0 * win_se);
}

INSTANTIATE_TEST_SUITE_P(SmallChains, ExactVsMonteCarlo,
                         ::testing::Values(ExactVsMcCase{6, 3, 3},
                                           ExactVsMcCase{8, 5, 2},
                                           ExactVsMcCase{10, 4, 4},
                                           ExactVsMcCase{12, 7, 3},
                                           ExactVsMcCase{14, 5, 5}));

}  // namespace
}  // namespace kusd
