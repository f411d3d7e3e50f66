// Synchronized USD variant (extension feature).
//
// Several works cited in Section 1.2 ([5, 7, 15, 30]) study a synchronized
// variant of the USD in which the system alternates between two phases:
// first every agent performs one USD step, then every undecided agent
// re-adopts an opinion (by sampling agents until a decided one is found).
// Phase clocks make this implementable in the population model at the cost
// of extra states; the payoff is polylogarithmic convergence *regardless of
// the initial configuration*. We implement the idealized synchronized
// process on top of the count-based round engine so bench_baselines can
// show the contrast the paper draws: polylog rounds, but a "less natural"
// protocol.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/round_engine.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"

namespace kusd::core {

class SyncUsd {
 public:
  SyncUsd(const pp::Configuration& initial, rng::Rng rng);

  /// One synchronized super-round: a USD round followed by repeated
  /// re-adoption rounds until no agent is undecided. Returns the number of
  /// re-adoption sub-rounds used.
  std::uint64_t super_round();

  /// Returns true iff consensus was reached within `max_super_rounds`.
  bool run_to_consensus(std::uint64_t max_super_rounds);

  [[nodiscard]] std::uint64_t super_rounds() const { return super_rounds_; }
  /// Total synchronous rounds including re-adoption sub-rounds.
  [[nodiscard]] std::uint64_t total_rounds() const { return total_rounds_; }
  [[nodiscard]] pp::Count n() const { return n_; }
  [[nodiscard]] std::span<const pp::Count> opinions() const {
    return opinions_;
  }
  [[nodiscard]] bool is_consensus() const { return winner_.has_value(); }
  [[nodiscard]] int consensus_opinion() const { return *winner_; }

 private:
  std::vector<pp::Count> opinions_;
  pp::Count n_;
  RoundEngine engine_;
  rng::Rng rng_;
  std::uint64_t super_rounds_ = 0;
  std::uint64_t total_rounds_ = 0;
  std::optional<int> winner_;
};

}  // namespace kusd::core
