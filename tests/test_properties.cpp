// Broad randomized property sweep: algebraic identities among the
// analysis quantities, configuration invariants, and cross-module
// consistency, evaluated on many random configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/transition_probs.hpp"
#include "core/bias.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"

namespace kusd {
namespace {

using pp::Configuration;
using pp::Count;

/// Random configuration with n agents, k opinions, random undecided share.
Configuration random_config(rng::Rng& rng, Count n, int k) {
  // Random composition of n into k+1 parts via k+1 exponential-ish weights.
  std::vector<double> w(static_cast<std::size_t>(k) + 1);
  for (auto& x : w) x = -std::log(1.0 - rng.uniform01());
  double total = 0.0;
  for (double x : w) total += x;
  std::vector<Count> counts(static_cast<std::size_t>(k), 0);
  Count assigned = 0;
  for (int i = 0; i < k; ++i) {
    counts[static_cast<std::size_t>(i)] = static_cast<Count>(
        static_cast<double>(n) * w[static_cast<std::size_t>(i)] / total);
    assigned += counts[static_cast<std::size_t>(i)];
  }
  Count undecided = n - assigned;
  // Keep at least one decided agent.
  if (undecided == n) {
    counts[0] = 1;
    undecided = n - 1;
  }
  return Configuration(std::move(counts), undecided);
}

// Both fields are 8 bytes wide so the struct has no padding: gtest prints
// the parameter as a byte dump and CTest names each case after it, so
// uninitialised padding bytes would rename the cases on every build.
struct SweepParam {
  Count n = 0;
  std::int64_t k = 0;
};
static_assert(sizeof(SweepParam) == 2 * sizeof(std::int64_t));

class RandomConfigSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RandomConfigSweep, AnalysisIdentitiesHold) {
  const Count n = GetParam().n;
  const int k = static_cast<int>(GetParam().k);
  rng::Rng rng(0xABCD + n + static_cast<Count>(k));
  for (int round = 0; round < 200; ++round) {
    const auto x = random_config(rng, n, k);
    const double dn = static_cast<double>(n);

    // Observation 6 identities.
    const double pm = analysis::p_minus(x);
    const double pp_ = analysis::p_plus(x);
    ASSERT_GE(pm, 0.0);
    ASSERT_GE(pp_, 0.0);
    ASSERT_LE(pm + pp_, 1.0 + 1e-12);
    // p- + p+ equals the per-opinion sums (Observation 8).
    double sum_i_plus = 0.0, sum_i_minus = 0.0;
    for (int i = 0; i < k; ++i) {
      const double plus = analysis::p_i_plus(x, i);
      const double minus = analysis::p_i_minus(x, i);
      ASSERT_GE(plus, 0.0);
      ASSERT_GE(minus, 0.0);
      sum_i_plus += plus;
      sum_i_minus += minus;
    }
    // Sum over opinions of "x_i grows" is exactly "u shrinks", and
    // "x_i shrinks" is "u grows".
    ASSERT_NEAR(sum_i_plus, pm, 1e-12);
    ASSERT_NEAR(sum_i_minus, pp_, 1e-12);

    // Observation 9 antisymmetry: p_ij_plus(i,j) == p_ij_minus(j,i).
    if (k >= 2) {
      ASSERT_NEAR(analysis::p_ij_plus(x, 0, 1),
                  analysis::p_ij_minus(x, 1, 0), 1e-15);
    }

    // Potential identities: Z_alpha interpolates Z.
    ASSERT_NEAR(analysis::potential_z_alpha(x, 1.0),
                analysis::potential_z(x), 1e-9);
    ASSERT_LE(analysis::potential_z(x), dn);

    // sum_squares bounds: (n-u)^2/k <= r2 <= (n-u)^2 (Appendix B).
    const double decided = static_cast<double>(x.decided());
    ASSERT_LE(x.sum_squares(), decided * decided + 1e-9);
    ASSERT_GE(x.sum_squares(),
              decided * decided / static_cast<double>(k) - 1e-9);

    // Bias measures: md(x) in [1, k]; multiplicative >= 1; additive >= 0.
    if (x.xmax() > 0) {
      const double md = core::monochromatic_distance(x);
      ASSERT_GE(md, 1.0 - 1e-12);
      ASSERT_LE(md, static_cast<double>(k) + 1e-12);
      ASSERT_GE(core::multiplicative_bias(x), 1.0);
    }
    // The plurality is always significant; significant count >= 1.
    ASSERT_TRUE(core::is_significant(x, x.argmax(), 1.0));
    ASSERT_GE(core::significant_count(x, 1.0), 1);
    // Significant implies important (threshold is 4x larger).
    for (int i = 0; i < k; ++i) {
      if (core::is_significant(x, i, 1.0)) {
        ASSERT_TRUE(core::is_important(x, i, 1.0));
      }
    }
  }
}

TEST_P(RandomConfigSweep, UStarDriftDirection) {
  // Above u* the conditional probability of u increasing is < 1/2 for
  // uniform-support configurations (Observation 7 direction); below u* on
  // uniform supports it is > 1/2. This is the "unstable equilibrium".
  const Count n = GetParam().n;
  const int k = static_cast<int>(GetParam().k);
  if (k < 2) return;
  const double ustar = analysis::u_star(n, k);
  const auto above = Configuration::uniform(
      n, k, static_cast<Count>(std::min(static_cast<double>(n - k),
                                        ustar + 0.05 * static_cast<double>(n))));
  EXPECT_LT(analysis::p_tilde_plus(above), 0.5);
  const auto below = Configuration::uniform(
      n, k,
      static_cast<Count>(std::max(0.0, ustar - 0.05 * static_cast<double>(n))));
  EXPECT_GT(analysis::p_tilde_plus(below), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RandomConfigSweep,
    ::testing::Values(SweepParam{100, 2}, SweepParam{100, 5},
                      SweepParam{1000, 3}, SweepParam{1000, 16},
                      SweepParam{100000, 8}, SweepParam{100000, 64},
                      SweepParam{1000000, 32}));

}  // namespace
}  // namespace kusd
