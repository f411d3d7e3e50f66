// End-to-end integration tests: miniature versions of the paper's claims
// (Theorem 2 and the phase structure) that must hold at test scale.
#include <gtest/gtest.h>

#include <cmath>

#include <vector>

#include "core/bias.hpp"
#include "runner/run.hpp"
#include "pp/configuration.hpp"
#include "runner/trials.hpp"
#include "stats/regression.hpp"
#include "sim/registry.hpp"
#include "stats/summary.hpp"

namespace kusd {
namespace {

using runner::run_usd;
using pp::Configuration;

// Theorem 2(2): with an additive bias of Omega(sqrt(n log n)) the plurality
// wins w.h.p.
TEST(Theorem2, AdditiveBiasPluralityWins) {
  const pp::Count n = 20000;
  const int k = 5;
  const auto beta = static_cast<pp::Count>(
      4.0 * std::sqrt(static_cast<double>(n) *
                      std::log(static_cast<double>(n))));
  const auto x0 = Configuration::with_additive_bias(n, k, 0, beta);
  const auto results = runner::run_trials<int>(
      30, 555,
      [&x0](std::uint64_t seed) {
        const auto r = run_usd(x0, seed);
        return r.converged && r.plurality_won ? 1 : 0;
      });
  int wins = 0;
  for (int w : results) wins += w;
  EXPECT_GE(wins, 28) << "plurality must win w.h.p. under additive bias";
}

// Theorem 2(1): multiplicative bias gives a strictly faster convergence
// than the additive-bias regime on the same (n, k).
TEST(Theorem2, MultiplicativeBiasIsFasterThanNoBias) {
  const pp::Count n = 20000;
  const int k = 8;
  const auto mult = Configuration::with_multiplicative_bias(n, k, 0, 1.5);
  const auto flat = Configuration::uniform(n, k, 0);
  const auto t_mult = runner::run_trials_samples(
      12, 888, [&mult](std::uint64_t seed) {
        return static_cast<double>(run_usd(mult, seed).interactions);
      });
  const auto t_flat = runner::run_trials_samples(
      12, 889, [&flat](std::uint64_t seed) {
        return static_cast<double>(run_usd(flat, seed).interactions);
      });
  EXPECT_LT(t_mult.mean(), t_flat.mean());
}

// Theorem 2(3): no bias still converges (to a significant opinion) within
// the O(k n log n) budget.
TEST(Theorem2, NoBiasConvergesWithinBudget) {
  const pp::Count n = 20000;
  const int k = 8;
  const auto x0 = Configuration::uniform(n, k, 0);
  const double budget = 64.0 * k * static_cast<double>(n) *
                        std::log(static_cast<double>(n));
  const auto results = runner::run_trials<double>(
      16, 111, [&x0](std::uint64_t seed) {
        const auto r = run_usd(x0, seed);
        EXPECT_TRUE(r.converged);
        EXPECT_TRUE(r.winner_initially_significant);
        return static_cast<double>(r.interactions);
      });
  for (double t : results) EXPECT_LE(t, budget);
}

// The assumption u(0) <= (n - x1(0))/2 from Theorem 2 is honored and the
// process still converges starting with many undecided agents.
TEST(Theorem2, ToleratesInitialUndecided) {
  const pp::Count n = 10000;
  const int k = 4;
  const auto x0 = Configuration::uniform(n, k, (n - n / k) / 2);
  const auto r = run_usd(x0, 99);
  EXPECT_TRUE(r.converged);
}

// Phase structure: on unbiased starts Phase 1 completes within O(n log n)
// interactions (Lemma 1 gives 7 n ln n explicitly).
TEST(Phases, PhaseOneEndsWithinLemma1Bound) {
  const pp::Count n = 50000;
  const auto x0 = Configuration::uniform(n, 8, 0);
  const double bound = 7.0 * static_cast<double>(n) *
                       std::log(static_cast<double>(n));
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto r = run_usd(x0, seed);
    ASSERT_TRUE(r.phases.t1.has_value());
    EXPECT_LE(static_cast<double>(*r.phases.t1), bound) << "seed " << seed;
  }
}

// Lemma 3 (upper bound on undecided agents): u(t) < n/2 throughout.
TEST(Phases, UndecidedStaysBelowHalf) {
  const pp::Count n = 20000;
  const auto x0 = Configuration::uniform(n, 6, 0);
  const auto engine = sim::Registry::instance().create("every", x0, 3);
  bool ok = true;
  engine->run_observed(engine->default_budget(), n / 10,
                       [&ok, n](std::uint64_t, std::span<const pp::Count>,
                                pp::Count u) {
                         if (u >= n / 2) ok = false;
                       });
  EXPECT_TRUE(ok);
}

// Lemma 16 (Phase 5): from a 2/3 supermajority, consensus lands on that
// opinion within O(n log n) interactions.
TEST(Phases, SupermajorityWinsWithinNLogN) {
  const pp::Count n = 10000;
  const pp::Count rest = n - (2 * n / 3 + 1);
  const auto x0 = Configuration({2 * n / 3 + 1, rest / 2, rest - rest / 2},
                                0);
  const double bound = 40.0 * static_cast<double>(n) *
                       std::log(static_cast<double>(n));
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto r = run_usd(x0, seed);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.winner, 0) << "seed " << seed;
    EXPECT_LE(static_cast<double>(r.interactions), bound);
  }
}

// Scaling shape of Theorem 2(2): consensus time under additive bias grows
// roughly like n log n for fixed k (log-log exponent close to 1).
TEST(Theorem2, AdditiveBiasScalingExponent) {
  std::vector<double> ns, ts;
  for (pp::Count n : {4000u, 8000u, 16000u, 32000u}) {
    const auto beta = static_cast<pp::Count>(
        3.0 * std::sqrt(static_cast<double>(n) *
                        std::log(static_cast<double>(n))));
    const auto x0 = Configuration::with_additive_bias(n, 4, 0, beta);
    const auto samples = runner::run_trials_samples(
        10, 1000 + n, [&x0](std::uint64_t seed) {
          return static_cast<double>(run_usd(x0, seed).interactions);
        });
    ns.push_back(static_cast<double>(n));
    ts.push_back(samples.mean());
  }
  const auto fit = stats::loglog_fit(ns, ts);
  // n log n on a log-log plot has local slope 1 + 1/ln n ~ 1.1; allow a
  // generous band that still excludes n^2 or sqrt(n) behavior.
  EXPECT_GT(fit.slope, 0.75);
  EXPECT_LT(fit.slope, 1.45);
}

}  // namespace
}  // namespace kusd
