// E5 — Lemmas 1, 3, 4: the number of undecided agents.
//
// Three claims about u(t):
//   * (Lemma 1) u rises to at least (n - xmax)/2 within 7 n ln n
//     interactions;
//   * (Lemma 3) u stays below n/2 - Omega(sqrt(n log n)) forever after;
//   * (Lemma 4) u stays above (n - xmax)/2 - 8 sqrt(n ln n) after T1.
// The equilibrium u* = n(k-1)/(2k-1) is where the up/down drift of u
// balances; we print the observed u-band against u* and the two bounds.
#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/transition_probs.hpp"
#include "bench_common.hpp"
#include "pp/configuration.hpp"
#include "runner/csv.hpp"
#include "runner/trials.hpp"
#include "sim/registry.hpp"
#include "stats/summary.hpp"

using namespace kusd;

namespace {

struct Band {
  double t1 = 0.0;               // first time 2u >= n - xmax
  double min_after = 0.0;        // min of u - (n - xmax)/2 after T1
  double max_u = 0.0;            // max u over the whole run
  bool upper_ok = false;         // u < n/2 throughout
  bool lower_ok = false;         // u >= (n-xmax)/2 - 8 sqrt(n ln n) after T1
};

Band measure(pp::Count n, int k, std::uint64_t seed) {
  const auto x0 = pp::Configuration::uniform(n, k, 0);
  const auto engine = sim::Registry::instance().create("skip", x0, seed);
  Band band;
  band.upper_ok = true;
  band.lower_ok = true;
  band.min_after = static_cast<double>(n);
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
        if (reached_t1 && xmax < n) {
          band.min_after = std::min(band.min_after, du - floor_level);
          if (du < floor_level - slack) band.lower_ok = false;
        }
      });
  return band;
}

}  // namespace

int main() {
  bench::banner("E5", "Lemmas 1, 3, 4 (+ u* equilibrium)",
                "u(t) rises within 7 n ln n, then stays in "
                "[(n-xmax)/2 - 8 sqrt(n ln n), n/2).");

  const int trials = runner::scaled_trials(8);
  const pp::Count n = runner::scaled(65536);
  runner::Table table({"k", "in regime?", "u*/n", "mean T1", "7 n ln n",
                       "max u/n", "u<n/2", "lower bound held"});
  runner::CsvWriter csv("bench_undecided_equilibrium.csv",
                        {"k", "u_star", "mean_t1", "max_u"});

  for (int k : {2, 4, 8, 16, 32, 64}) {
    const auto rows = runner::run_trials<Band>(
        trials, 0xE5000 + static_cast<std::uint64_t>(k),
        [n, k](std::uint64_t seed) { return measure(n, k, seed); });
    stats::Samples t1, max_u;
    int upper = 0, lower = 0;
    for (const auto& row : rows) {
      t1.add(row.t1);
      max_u.add(row.max_u);
      upper += row.upper_ok ? 1 : 0;
      lower += row.lower_ok ? 1 : 0;
    }
    const double ustar = analysis::u_star(n, k);
    // Lemma 3 needs k <= c sqrt(n)/log^2 n; report how far each k sits
    // from that regime (the n/2 ceiling is only promised inside it).
    const double dn = static_cast<double>(n);
    const double regime_c =
        static_cast<double>(k) * std::log(dn) * std::log(dn) / std::sqrt(dn);
    table.add_row(
        {std::to_string(k),
         regime_c <= 4.0 ? "yes (c<=4)" : "no (c=" + runner::fmt(regime_c, 0) + ")",
         runner::fmt(ustar / static_cast<double>(n), 3),
         runner::fmt_compact(t1.mean()),
         runner::fmt_compact(7.0 * bench::n_log_n(n)),
         runner::fmt(max_u.mean() / static_cast<double>(n), 3),
         std::to_string(upper) + "/" + std::to_string(trials),
         std::to_string(lower) + "/" + std::to_string(trials)});
    csv.write_row({std::to_string(k), runner::fmt(ustar, 1),
                   runner::fmt(t1.mean(), 1), runner::fmt(max_u.mean(), 1)});
  }
  table.print();
  std::printf("\nexpected shape: T1 well below 7 n ln n; max u/n below but\n"
              "approaching u*/n -> 1/2 as k grows. The u < n/2 ceiling is\n"
              "promised only for k = O(sqrt(n)/log^2 n) (the 'in regime'\n"
              "column); out-of-regime k may brush past n/2, exactly as the\n"
              "k-range condition in Theorem 2 predicts. The Lemma 4 floor\n"
              "holds everywhere.\n");
  std::printf("wrote bench_undecided_equilibrium.csv\n");
  return 0;
}
