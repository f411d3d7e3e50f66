// USD in the synchronous (parallel) gossip model — the comparator of
// Becchetti et al. [9] used by the Appendix D rate comparison (E8).
//
// In each round every agent independently samples one agent uniformly at
// random (with replacement, self included) and applies the USD rule to the
// sampled opinion, all updates computed from the pre-round configuration.
// The simulation is count-based (core::RoundEngine): the decided agents
// that keep their opinion are one binomial per opinion, and the undecided
// agents' adoptions one multinomial over the pre-round state distribution,
// so one round costs at most 2k binomial draws instead of O(n) samples.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/round_engine.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"

namespace kusd::gossip {

class GossipUsd {
 public:
  GossipUsd(const pp::Configuration& initial, rng::Rng rng);

  /// Execute one synchronous round.
  void round();

  /// Returns true iff consensus was reached within `max_rounds`.
  bool run_to_consensus(std::uint64_t max_rounds);

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] pp::Count n() const { return n_; }
  [[nodiscard]] int k() const { return static_cast<int>(opinions_.size()); }
  [[nodiscard]] std::span<const pp::Count> opinions() const {
    return opinions_;
  }
  [[nodiscard]] pp::Count undecided() const { return undecided_; }
  [[nodiscard]] bool is_consensus() const { return winner_.has_value(); }
  [[nodiscard]] int consensus_opinion() const { return *winner_; }
  [[nodiscard]] pp::Configuration configuration() const {
    return pp::Configuration(opinions_, undecided_);
  }

 private:
  std::vector<pp::Count> opinions_;
  pp::Count undecided_;
  pp::Count n_;
  core::RoundEngine engine_;
  rng::Rng rng_;
  std::uint64_t rounds_ = 0;
  std::optional<int> winner_;
};

}  // namespace kusd::gossip
