// Schedulers: the three execution engines for population protocols.
//
//  * CountScheduler — samples state *categories* by their counts (agents are
//    anonymous, so this is distributionally identical to sampling agents);
//    O(log k) per interaction via the urn. The workhorse engine.
//  * AgentScheduler — keeps an explicit agent array and samples indices.
//    O(1) per interaction but O(n) memory; serves as the executable ground
//    truth the count engine is validated against.
//
// Both engines simulate the exact same Markov chain: one uniformly random
// ordered pair (responder, initiator) per step, with replacement.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "pp/protocol.hpp"
#include "rng/rng.hpp"
#include "urn/urn.hpp"

namespace kusd::pp {

/// Count-based scheduler for an arbitrary PairProtocol.
class CountScheduler {
 public:
  /// `initial_counts` has one entry per protocol state. The transition
  /// function is tabulated when num_states^2 is small enough.
  CountScheduler(const PairProtocol& protocol,
                 std::span<const std::uint64_t> initial_counts,
                 rng::Rng rng);

  /// Execute one interaction.
  void step();

  /// Execute interactions until `stop(counts)` returns true or `max_steps`
  /// is reached. Returns the number of interactions executed.
  std::uint64_t run_until(
      const std::function<bool(std::span<const std::uint64_t>)>& stop,
      std::uint64_t max_steps);

  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] std::span<const std::uint64_t> counts() const {
    return urn_.counts();
  }
  [[nodiscard]] std::uint64_t n() const { return urn_.total(); }
  [[nodiscard]] rng::Rng& rng() { return rng_; }

 private:
  const PairProtocol& protocol_;
  urn::Urn urn_;
  rng::Rng rng_;
  std::uint64_t steps_ = 0;
  int num_states_;
  // Tabulated delta, indexed responder * num_states + initiator; empty when
  // the state space is too large to tabulate.
  std::vector<PairTransition> table_;
};

/// Explicit-agent scheduler: ground truth for validation and for protocols
/// whose state space is too rich to count.
class AgentScheduler {
 public:
  AgentScheduler(const PairProtocol& protocol,
                 std::span<const std::uint64_t> initial_counts, rng::Rng rng);

  void step();
  std::uint64_t run_until(
      const std::function<bool(std::span<const std::uint64_t>)>& stop,
      std::uint64_t max_steps);

  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  /// Per-state counts, maintained incrementally.
  [[nodiscard]] std::span<const std::uint64_t> counts() const {
    return counts_;
  }
  [[nodiscard]] std::span<const int> agents() const { return agents_; }
  [[nodiscard]] std::uint64_t n() const { return agents_.size(); }

 private:
  const PairProtocol& protocol_;
  std::vector<int> agents_;
  std::vector<std::uint64_t> counts_;
  rng::Rng rng_;
  std::uint64_t steps_ = 0;
};

}  // namespace kusd::pp
