// The USD under the graph-restricted scheduler: one uniformly random
// (oriented) edge per interaction, its responder updated by UsdProtocol.
//
// On the complete graph this is the standard population protocol scheduler
// conditioned on responder != initiator (the paper's self-interactions are
// unproductive for the USD, so the two models have identical productive
// dynamics). On restricted topologies it generalizes the model the way the
// cited graph literature does.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/usd.hpp"
#include "pp/graph.hpp"
#include "rng/rng.hpp"

namespace kusd::core {

class GraphScheduler {
 public:
  /// `initial_states[v]` is the starting state of vertex v: an opinion in
  /// [0, k) or the undecided state k.
  GraphScheduler(int k, const pp::InteractionGraph& graph,
                 std::vector<int> initial_states, rng::Rng rng);

  void step();

  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] std::span<const int> states() const { return states_; }
  /// Per-state counts (opinions 0..k-1, then undecided), maintained
  /// incrementally.
  [[nodiscard]] std::span<const std::uint64_t> counts() const {
    return counts_;
  }

 private:
  UsdProtocol protocol_;
  const pp::InteractionGraph& graph_;
  std::vector<int> states_;
  std::vector<std::uint64_t> counts_;
  rng::Rng rng_;
  std::uint64_t steps_ = 0;
};

}  // namespace kusd::core
