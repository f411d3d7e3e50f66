// Visualize one USD run: the rise of the undecided agents toward the
// unstable equilibrium u* = n(k-1)/(2k-1) (Lemma 3), the growth of the
// plurality opinion, and the five phase boundaries of the paper's analysis.
//
//   $ ./phase_trace [n] [k] [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/transition_probs.hpp"
#include "core/bias.hpp"
#include "core/phase_tracker.hpp"
#include "pp/configuration.hpp"
#include "sim/registry.hpp"

int main(int argc, char** argv) {
  using namespace kusd;

  const pp::Count n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const int k = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                      : 42;

  const auto initial = pp::Configuration::uniform(n, k, 0);
  const auto engine = sim::Registry::instance().create("skip", initial, seed);
  core::PhaseTracker tracker(n, 1.0);

  std::printf("USD trace: n=%llu k=%d  (u* = %.0f)\n",
              static_cast<unsigned long long>(n), k,
              analysis::u_star(n, k));
  std::printf("%12s %10s %10s %8s  %s\n", "interactions", "undecided",
              "xmax", "#signif", "support bar (plurality share)");

  const std::uint64_t interval = std::max<std::uint64_t>(1, n / 2);
  std::uint64_t next_print = 0;
  engine->run_observed(
      engine->default_budget(), std::max<std::uint64_t>(1, n / 8),
      [&](std::uint64_t t, std::span<const pp::Count> opinions,
          pp::Count undecided) {
        tracker.observe(t, opinions, undecided);
        if (t < next_print) return;
        next_print = t + interval;
        const pp::Count xmax = *std::max_element(opinions.begin(),
                                                 opinions.end());
        int significant = 0;
        const double threshold =
            core::significance_threshold(n, 1.0);
        for (pp::Count c : opinions) {
          if (static_cast<double>(c) >
              static_cast<double>(xmax) - threshold) {
            ++significant;
          }
        }
        const auto share = static_cast<std::size_t>(
            40.0 * static_cast<double>(xmax) / static_cast<double>(n));
        std::printf("%12llu %10llu %10llu %8d  %s\n",
                    static_cast<unsigned long long>(t),
                    static_cast<unsigned long long>(undecided),
                    static_cast<unsigned long long>(xmax), significant,
                    std::string(share, '#').c_str());
      });

  const auto& ph = tracker.times();
  std::printf("\nphase boundaries (first observation at/after condition):\n");
  const auto show = [](const char* name,
                       const std::optional<std::uint64_t>& t) {
    if (t) {
      std::printf("  %s = %llu\n", name,
                  static_cast<unsigned long long>(*t));
    } else {
      std::printf("  %s = (not reached)\n", name);
    }
  };
  show("T1 (undecided risen)", ph.t1);
  show("T2 (unique significant opinion)", ph.t2);
  show("T3 (multiplicative bias >= 2)", ph.t3);
  show("T4 (2/3 supermajority)", ph.t4);
  show("T5 (consensus)", ph.t5);
  if (engine->is_consensus()) {
    std::printf("winner: opinion %d\n", engine->consensus_opinion());
  }
  return 0;
}
