// Observations 6/8/9 and Observation 7: the closed-form transition
// probabilities and the undecided equilibrium, validated against empirical
// one-step frequencies of the simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/transition_probs.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"

namespace kusd {
namespace {

using pp::Configuration;

TEST(TransitionProbs, Observation6ClosedForms) {
  const Configuration x({30, 20, 10}, 40);  // n = 100
  // p- = u (n-u) / n^2 = 40*60/10000.
  EXPECT_DOUBLE_EQ(analysis::p_minus(x), 0.24);
  // p+ = ((n-u)^2 - r2)/n^2 = (3600 - (900+400+100))/10000.
  EXPECT_DOUBLE_EQ(analysis::p_plus(x), 0.22);
  EXPECT_DOUBLE_EQ(analysis::p_tilde_plus(x), 0.22 / 0.46);
}

TEST(TransitionProbs, Observation8ClosedForms) {
  const Configuration x({30, 20, 10}, 40);
  EXPECT_DOUBLE_EQ(analysis::p_i_plus(x, 0), 40.0 * 30.0 / 10000.0);
  // x_0 (n - u - x_0) / n^2 = 30 * 30 / 10000.
  EXPECT_DOUBLE_EQ(analysis::p_i_minus(x, 0), 0.09);
}

TEST(TransitionProbs, Observation9ClosedForms) {
  const Configuration x({30, 20, 10}, 40);
  EXPECT_DOUBLE_EQ(analysis::p_ij_plus(x, 0, 1),
                   analysis::p_i_plus(x, 0) + analysis::p_i_minus(x, 1));
  EXPECT_DOUBLE_EQ(analysis::p_ij_minus(x, 0, 1),
                   analysis::p_i_minus(x, 0) + analysis::p_i_plus(x, 1));
}

TEST(TransitionProbs, UStarFormula) {
  EXPECT_DOUBLE_EQ(analysis::u_star(300, 2), 100.0);      // n/3 for k=2
  EXPECT_DOUBLE_EQ(analysis::u_star(1000, 1), 0.0);       // k=1: no flips
  EXPECT_NEAR(analysis::u_star(1000, 100), 1000.0 * 99.0 / 199.0, 1e-9);
  // u* -> n/2 as k grows.
  EXPECT_NEAR(analysis::u_star(1'000'000, 10000), 500000.0, 50.0);
}

TEST(TransitionProbs, PotentialFunctions) {
  const Configuration x({30, 20, 10}, 40);
  // Z = n - 2u - xmax = 100 - 80 - 30.
  EXPECT_DOUBLE_EQ(analysis::potential_z(x), -10.0);
  EXPECT_DOUBLE_EQ(analysis::potential_z_alpha(x, 7.0 / 8.0),
                   100.0 - 80.0 - 7.0 / 8.0 * 30.0);
}

// Lemma 1's drift inequality: E[Z(t) - Z(t+1)] >= Z/(2n) whenever Z >= 0
// and u < n/2 (checked on a grid of Phase-1 configurations).
TEST(TransitionProbs, Lemma1DriftInequalityOnGrid) {
  const pp::Count n = 120;
  for (pp::Count u = 0; u < n / 2; u += 10) {
    for (pp::Count x0 = 1; x0 + u <= n; x0 += 7) {
      const pp::Count rest = n - u - x0;
      const Configuration x({x0, rest / 2, rest - rest / 2}, u);
      if (x.xmax() != x0) continue;  // keep opinion 0 the plurality
      const double z = analysis::potential_z(x);
      if (z < 0) continue;
      EXPECT_GE(analysis::expected_z_drift(x) + 1e-12,
                z / (2.0 * static_cast<double>(n)))
          << "u=" << u << " x0=" << x0;
    }
  }
}

// Observation 7: p~+ <= 1/2 - eps/2 when u >= u* + eps n.
TEST(TransitionProbs, Observation7UpperBound) {
  const pp::Count n = 1000;
  for (int k : {2, 3, 10}) {
    const double ustar = analysis::u_star(n, k);
    for (double eps : {0.05, 0.1, 0.2}) {
      const auto u = static_cast<pp::Count>(std::ceil(
          ustar + eps * static_cast<double>(n)));
      if (u >= n) continue;
      const auto x = Configuration::uniform(n, k, u);
      EXPECT_LE(analysis::p_tilde_plus(x), 0.5 - eps / 2.0 + 1e-9)
          << "k=" << k << " eps=" << eps;
    }
  }
}

// Empirical validation: simulate many single interactions from a fixed
// configuration and compare the frequency of each u-move with the formulas.
TEST(TransitionProbs, EmpiricalOneStepFrequenciesMatch) {
  const Configuration x({30, 20, 10}, 40);
  rng::Rng r(99);
  const int trials = 300000;
  int down = 0, up = 0;
  for (int t = 0; t < trials; ++t) {
    core::UsdSimulator sim(x, rng::Rng(r.next_u64()));
    sim.step();
    if (sim.undecided() < 40) ++down;
    if (sim.undecided() > 40) ++up;
  }
  const double sigma = std::sqrt(0.25 * trials);  // conservative
  EXPECT_NEAR(down, analysis::p_minus(x) * trials, 5 * sigma);
  EXPECT_NEAR(up, analysis::p_plus(x) * trials, 5 * sigma);
}

TEST(TransitionProbs, EmpiricalOpinionStepFrequenciesMatch) {
  const Configuration x({50, 30}, 20);
  rng::Rng r(101);
  const int trials = 300000;
  int up0 = 0, down0 = 0;
  for (int t = 0; t < trials; ++t) {
    core::UsdSimulator sim(x, rng::Rng(r.next_u64()));
    sim.step();
    if (sim.counts()[0] > 50) ++up0;
    if (sim.counts()[0] < 50) ++down0;
  }
  const double sigma = std::sqrt(0.25 * trials);
  EXPECT_NEAR(up0, analysis::p_i_plus(x, 0) * trials, 5 * sigma);
  EXPECT_NEAR(down0, analysis::p_i_minus(x, 0) * trials, 5 * sigma);
}

}  // namespace
}  // namespace kusd
