// Domain scenario: plurality voting in a sensor swarm.
//
// n cheap sensors each classify a phenomenon into one of k classes. Each
// sensor's reading is noisy: it reports the true class with probability
// `accuracy`, otherwise a uniformly random wrong class. The swarm has no
// coordinator and only pairwise random gossip — the population protocol
// model. Running the USD lets the swarm converge to one answer; by
// Theorem 2 the initial plurality (the true class, when accuracy makes it
// the plurality with an Omega(sqrt(n log n)) margin) wins w.h.p.
//
//   $ ./sensor_vote [n] [k] [accuracy] [trials]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/bias.hpp"
#include "runner/run.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "runner/trials.hpp"

int main(int argc, char** argv) {
  using namespace kusd;

  const pp::Count n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;
  const int k = argc > 2 ? std::atoi(argv[2]) : 10;
  const double accuracy = argc > 3 ? std::atof(argv[3]) : 0.2;
  const int trials = argc > 4 ? std::atoi(argv[4]) : 25;
  const int true_class = 0;

  std::printf("sensor swarm: n=%llu sensors, k=%d classes, per-sensor "
              "accuracy %.2f (chance level %.2f)\n",
              static_cast<unsigned long long>(n), k, accuracy, 1.0 / k);

  const auto outcome = runner::run_trials<int>(
      trials, /*master_seed=*/7,
      [&](std::uint64_t seed) {
        rng::Rng rng(seed);
        // Generate the noisy initial readings.
        std::vector<pp::Count> votes(static_cast<std::size_t>(k), 0);
        for (pp::Count s = 0; s < n; ++s) {
          int reading = true_class;
          if (!rng.bernoulli(accuracy)) {
            reading = 1 + static_cast<int>(rng.bounded(
                              static_cast<std::uint64_t>(k - 1)));
          }
          ++votes[static_cast<std::size_t>(reading)];
        }
        const pp::Configuration initial(votes, 0);
        const auto result = runner::run_usd(initial, rng.next_u64());
        return result.converged && result.winner == true_class ? 1 : 0;
      });

  int correct = 0;
  for (int c : outcome) correct += c;
  std::printf("swarm agreed on the true class in %d / %d trials (%.1f%%)\n",
              correct, trials, 100.0 * correct / trials);

  // Show the margin the USD had to work with in one instance.
  rng::Rng rng(1);
  std::vector<pp::Count> votes(static_cast<std::size_t>(k), 0);
  for (pp::Count s = 0; s < n; ++s) {
    int reading = true_class;
    if (!rng.bernoulli(accuracy)) {
      reading = 1 + static_cast<int>(rng.bounded(
                        static_cast<std::uint64_t>(k - 1)));
    }
    ++votes[static_cast<std::size_t>(reading)];
  }
  const pp::Configuration sample(votes, 0);
  std::printf("example initial margin: additive bias %llu vs significance "
              "threshold %.0f\n",
              static_cast<unsigned long long>(core::additive_bias(sample)),
              core::significance_threshold(n, 1.0));
  return 0;
}
