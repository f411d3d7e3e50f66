// The k-opinion Undecided State Dynamics — the paper's subject.
//
// Two faces are exposed:
//
//  * UsdProtocol — the transition function as a pp::PairProtocol, usable
//    with the generic schedulers (and the form in which the protocol is
//    stated in Section 2 of the paper).
//  * UsdSimulator — the tuned count-based engine used by the benches. It
//    samples the exact same Markov chain (one uniformly random ordered
//    (responder, initiator) pair per interaction, self-pairs allowed) but
//    exploits USD structure: only the responder ever changes, consensus is
//    detectable in O(1), and unproductive interactions can optionally be
//    skipped in bulk with an exact geometric jump (StepMode::kSkipUnproductive).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "pp/configuration.hpp"
#include "pp/protocol.hpp"
#include "rng/rng.hpp"
#include "urn/urn.hpp"

namespace kusd::core {

/// delta of the USD with k opinions; state k is the undecided state.
class UsdProtocol final : public pp::PairProtocol {
 public:
  explicit UsdProtocol(int k);

  [[nodiscard]] int num_states() const override { return k_ + 1; }
  [[nodiscard]] int undecided_state() const { return k_; }
  [[nodiscard]] pp::PairTransition apply(int responder,
                                         int initiator) const override;

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
  urn::UrnEngine engine = urn::UrnEngine::kAuto;
};

class UsdSimulator {
 public:
  UsdSimulator(const pp::Configuration& initial, rng::Rng rng,
               UsdOptions options = {});

  /// Execute one interaction (kEveryInteraction) or one productive
  /// interaction plus the unproductive run before it (kSkipUnproductive).
  void step();

  /// Run until consensus or until `max_interactions` have elapsed.
  /// Returns true iff consensus was reached.
  bool run_to_consensus(std::uint64_t max_interactions);

  /// Like run_to_consensus, but invokes `observer(t, opinions, undecided)`
  /// before the first interaction and then every time the interaction count
  /// crosses a multiple of `interval` (in kSkipUnproductive mode the call
  /// happens at the first productive step past the boundary).
  using Observer = std::function<void(
      std::uint64_t t, std::span<const pp::Count> opinions,
      pp::Count undecided)>;
  bool run_observed(std::uint64_t max_interactions, std::uint64_t interval,
                    const Observer& observer);

  // ---- Inspection ----
  [[nodiscard]] std::uint64_t interactions() const { return interactions_; }
  [[nodiscard]] pp::Count n() const { return n_; }
  [[nodiscard]] int k() const { return static_cast<int>(opinions_.size()); }
  [[nodiscard]] std::span<const pp::Count> opinions() const {
    return opinions_.counts();
  }
  [[nodiscard]] pp::Count opinion(int i) const {
    return opinions_.count(static_cast<std::size_t>(i));
  }
  [[nodiscard]] pp::Count undecided() const { return undecided_; }
  [[nodiscard]] bool is_consensus() const { return winner_.has_value(); }
  /// The consensus opinion; only valid when is_consensus().
  [[nodiscard]] int consensus_opinion() const { return *winner_; }
  [[nodiscard]] pp::Configuration configuration() const;

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
