// The k-opinion Undecided State Dynamics — the paper's subject.
//
// Two faces are exposed:
//
//  * UsdProtocol — the transition function, the form in which the
//    protocol is stated in Section 2 of the paper; core::GraphScheduler
//    applies it edge by edge.
//  * UsdSimulator — the tuned count-based engine, the registry's `every`
//    and `skip`. It samples the exact same Markov chain (one uniformly
//    random ordered (responder, initiator) pair per interaction,
//    self-pairs allowed) but exploits USD structure: only the responder
//    ever changes, consensus is detectable in O(1), and unproductive
//    interactions can optionally be skipped in bulk with an exact
//    geometric jump (StepMode::kSkipUnproductive).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/engine.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "urn/urn.hpp"

namespace kusd::core {

/// Result of applying delta to (responder, initiator).
struct PairTransition {
  int responder = 0;
  int initiator = 0;
};

/// delta of the USD with k opinions; state k is the undecided state.
class UsdProtocol {
 public:
  explicit UsdProtocol(int k);

  /// Number of agent states |Q| = k + 1.
  [[nodiscard]] int num_states() const { return k_ + 1; }
  [[nodiscard]] int undecided_state() const { return k_; }
  /// delta(responder, initiator).
  [[nodiscard]] PairTransition apply(int responder, int initiator) const;

 private:
  int k_;
};

/// Interaction-stepping policy of UsdSimulator.
enum class StepMode {
  /// Simulate every interaction individually.
  kEveryInteraction,
  /// Jump over maximal runs of unproductive interactions with an exact
  /// Geometric sample, then realize one productive interaction from the
  /// correct conditional distribution. Distributionally identical to
  /// kEveryInteraction (validated by property tests) but much faster in
  /// regimes where most interactions change nothing.
  kSkipUnproductive,
};

struct UsdOptions {
  StepMode mode = StepMode::kEveryInteraction;
};

class UsdSimulator final : public Engine {
 public:
  UsdSimulator(const pp::Configuration& initial, rng::Rng rng,
               UsdOptions options = {});

  /// Execute one interaction (kEveryInteraction) or one productive
  /// interaction plus the unproductive run before it (kSkipUnproductive).
  void step();

  /// Steps until consensus or until `budget` more interactions have
  /// elapsed; a skip step's geometric jump may overshoot the target by
  /// part of one jump.
  void advance(std::uint64_t budget) override;

  // ---- Inspection ----
  [[nodiscard]] std::uint64_t interactions() const { return interactions_; }
  /// Native time is interactions.
  [[nodiscard]] std::uint64_t elapsed() const override {
    return interactions_;
  }
  [[nodiscard]] pp::Count n() const override { return n_; }
  [[nodiscard]] std::span<const pp::Count> counts() const override {
    return opinions_.counts();
  }
  [[nodiscard]] pp::Count undecided() const override { return undecided_; }
  [[nodiscard]] bool is_consensus() const override {
    return winner_.has_value();
  }
  /// The consensus opinion; only valid when is_consensus().
  [[nodiscard]] int consensus_opinion() const override { return *winner_; }

 private:
  void step_plain();
  void step_skip();
  /// Sample a decided opinion proportional to its support.
  [[nodiscard]] int sample_opinion() { return static_cast<int>(
      opinions_.sample(rng_)); }
  void adopt(int opinion);   // undecided responder adopts `opinion`
  void flip(int opinion);    // responder of `opinion` becomes undecided

  urn::Urn opinions_;        // k categories: decided agents by opinion
  pp::Count undecided_;
  pp::Count n_;
  // Sum of squared opinion supports, maintained incrementally (r^2 of the
  // paper's Appendix B); used by the skip engine's productive probability.
  std::uint64_t sum_squares_;
  rng::Rng rng_;
  StepMode mode_;
  std::uint64_t interactions_ = 0;
  std::optional<int> winner_;
};

}  // namespace kusd::core
