// Lemmas 1-4 on the undecided count and on bias preservation through
// Phase 1, at n = 2^16 on the exact chain (`skip`). Each bound is the
// lemma's own constant; nothing here is fit to the data.
//
// Lemma 3's ceiling and Lemma 2 hold for k = O(sqrt(n)/log^2 n). At
// n = 2^16, k * ln^2 n / sqrt(n) is 1, 2, 4, 8 and 15 for k = 2, 4, 8, 16
// and 32, so those two are gated up to c = 4 (k <= 8) and only printed
// beyond it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>

#include "core/budget.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "runner/trials.hpp"
#include "sim/registry.hpp"

namespace kusd {
namespace {

constexpr pp::Count kN = 65536;

double n_ln_n(pp::Count n) {
  const double dn = static_cast<double>(n);
  return dn * std::log(dn);
}

// The undecided count u(t) of one run from a uniform start, observed every
// n/64 interactions.
struct Band {
  double t1 = 0.0;               // first time 2u >= n - xmax
  double max_u = 0.0;            // max u over the whole run
  bool upper_ok = false;         // u < n/2 throughout
  bool lower_ok = false;         // u >= (n-xmax)/2 - 8 sqrt(n ln n) after T1
};

Band measure_band(pp::Count n, int k, std::uint64_t seed) {
  const auto x0 = pp::Configuration::uniform(n, k, 0);
  const auto engine = sim::Registry::instance().create("skip", x0, seed);
  Band band;
  band.upper_ok = true;
  band.lower_ok = true;
  bool reached_t1 = false;
  const double slack = 8.0 * std::sqrt(static_cast<double>(n) *
                                       std::log(static_cast<double>(n)));
  engine->run_observed(
      engine->default_budget(), std::max<pp::Count>(1, n / 64),
      [&](std::uint64_t t, std::span<const pp::Count> opinions,
          pp::Count u) {
        const pp::Count xmax =
            *std::max_element(opinions.begin(), opinions.end());
        const double du = static_cast<double>(u);
        band.max_u = std::max(band.max_u, du);
        if (2 * u >= n) band.upper_ok = false;
        const double floor_level =
            (static_cast<double>(n) - static_cast<double>(xmax)) / 2.0;
        if (!reached_t1 && du >= floor_level) {
          reached_t1 = true;
          band.t1 = static_cast<double>(t);
        }
        if (reached_t1 && xmax < n && du < floor_level - slack) {
          band.lower_ok = false;
        }
      });
  return band;
}

// Lemma 1: u rises to (n - xmax)/2 within 7 n ln n interactions (T1 > 0
// also says it was reached: u = 0 at t = 0). Lemma 4: after T1, u stays
// above (n - xmax)/2 - 8 sqrt(n ln n). Lemma 3: u < n/2 throughout.
TEST(PaperLemmas, UndecidedCountRisesFastAndStaysInItsBand) {
  const double rise_bound = 7.0 * n_ln_n(kN);
  for (const int k : {2, 4, 8, 16}) {
    const auto bands = runner::run_trials<Band>(
        8, 0xE5000 + static_cast<std::uint64_t>(k),
        [k](std::uint64_t seed) { return measure_band(kN, k, seed); });
    const bool in_regime = k <= 8;
    double max_u = 0.0, t1_sum = 0.0;
    int upper = 0;
    for (std::size_t i = 0; i < bands.size(); ++i) {
      const Band& band = bands[i];
      EXPECT_GT(band.t1, 0.0) << "k=" << k << " trial " << i;
      EXPECT_LE(band.t1, rise_bound) << "k=" << k << " trial " << i;
      EXPECT_TRUE(band.lower_ok) << "k=" << k << " trial " << i;
      if (in_regime) {
        EXPECT_TRUE(band.upper_ok) << "k=" << k << " trial " << i;
      }
      max_u = std::max(max_u, band.max_u);
      t1_sum += band.t1;
      upper += band.upper_ok ? 1 : 0;
    }
    std::printf("k=%d%s: mean T1 %.3g (bound %.3g), max u/n %.3f, "
                "u < n/2 in %d of %zu trials\n",
                k, in_regime ? "" : " (out of regime, not gated)",
                t1_sum / static_cast<double>(bands.size()), rise_bound,
                max_u / static_cast<double>(kN), upper, bands.size());
  }
}

// The initial plurality (opinion 0) at T1, the first observation with
// 2u >= n - xmax, from a run of the exact chain stepped by hand so that
// it stops there.
struct AtT1 {
  double additive_ratio = 0.0;        // (x1-x2)(T1) / (x1-x2)(0)
  double multiplicative_at_t1 = 0.0;  // x1(T1)/x2(T1)
  double x1_ratio = 0.0;              // x1(T1) / x1(0)
};

AtT1 measure_at_t1(const pp::Configuration& x0, std::uint64_t seed) {
  core::UsdSimulator sim(x0, rng::Rng(seed),
                         core::UsdOptions{core::StepMode::kSkipUnproductive});
  const double gap0 = static_cast<double>(x0.opinion(0)) -
                      static_cast<double>(x0.opinion(1));
  const double x1_0 = static_cast<double>(x0.opinion(0));
  const pp::Count n = x0.n();
  const std::uint64_t check_every = std::max<pp::Count>(1, n / 64);
  const std::uint64_t cap = core::default_interaction_cap(n, x0.k());
  AtT1 out;
  std::uint64_t next_check = 0;
  while (!sim.is_consensus() && sim.interactions() < cap) {
    sim.step();
    if (sim.interactions() < next_check) continue;
    next_check = sim.interactions() + check_every;
    const auto opinions = sim.counts();
    const pp::Count u = sim.undecided();
    const pp::Count xmax =
        *std::max_element(opinions.begin(), opinions.end());
    if (2 * u < n - xmax) continue;  // T1 not reached yet
    // T1 reached: record the gap of the initial plurality (index 0)
    // against the best other opinion, then stop.
    const double x1 = static_cast<double>(opinions[0]);
    double best_other = 0.0;
    for (std::size_t i = 1; i < opinions.size(); ++i) {
      best_other = std::max(best_other, static_cast<double>(opinions[i]));
    }
    out.additive_ratio = gap0 > 0 ? (x1 - best_other) / gap0 : 0.0;
    out.multiplicative_at_t1 = best_other > 0 ? x1 / best_other : 1e9;
    out.x1_ratio = x1 / x1_0;
    break;
  }
  return out;
}

// Lemma 2, in every one of 24 trials: from an additive bias of
// 2 sqrt(n ln n), the gap keeps a third of itself and the plurality a
// third of its support; from a multiplicative bias 1 + eps with eps = 1,
// x1/x2 stays at least 1 + eps/(6 + 5 eps) = 12/11. A run that never
// reaches T1 reads 0 and fails.
//
// Level: with both master seeds shifted by 1000 * i for i = 0..999, the
// k = 8 gap gate failed at 17 of 1000 offsets, a false-failure rate of
// 1.7% (95% Clopper-Pearson 1.0-2.7%); its minimum over the offsets was
// 0.269, and the seeds below read 0.485. The other five gates failed at
// none of the 1000.
TEST(PaperLemmas, PhaseOneKeepsThePluralitysBias) {
  const auto beta = static_cast<pp::Count>(2.0 * std::sqrt(n_ln_n(kN)));
  for (const int k : {2, 8, 32}) {
    const bool in_regime = k <= 8;
    const auto additive =
        pp::Configuration::with_additive_bias(kN, k, 0, beta);
    const auto multiplicative =
        pp::Configuration::with_multiplicative_bias(kN, k, 0, 2.0);
    const auto add_rows = runner::run_trials<AtT1>(
        24, 0xE6000 + static_cast<std::uint64_t>(k),
        [&additive](std::uint64_t seed) {
          return measure_at_t1(additive, seed);
        });
    const auto mult_rows = runner::run_trials<AtT1>(
        24, 0xE6100 + static_cast<std::uint64_t>(k),
        [&multiplicative](std::uint64_t seed) {
          return measure_at_t1(multiplicative, seed);
        });
    double gap_min = 1e9, x1_min = 1e9, mult_min = 1e9;
    for (const AtT1& row : add_rows) {
      gap_min = std::min(gap_min, row.additive_ratio);
      x1_min = std::min(x1_min, row.x1_ratio);
    }
    for (const AtT1& row : mult_rows) {
      mult_min = std::min(mult_min, row.multiplicative_at_t1);
    }
    std::printf("k=%d%s: min gap(T1)/gap(0) %.3f, min x1(T1)/x1(0) %.3f, "
                "min x1/x2 at T1 %.3f\n",
                k, in_regime ? "" : " (out of regime, not gated)", gap_min,
                x1_min, mult_min);
    if (!in_regime) continue;
    EXPECT_GE(gap_min, 1.0 / 3.0) << "k=" << k;
    EXPECT_GE(x1_min, 1.0 / 3.0) << "k=" << k;
    EXPECT_GE(mult_min, 12.0 / 11.0) << "k=" << k;
  }
}

}  // namespace
}  // namespace kusd
