#include "core/graph_scheduler.hpp"

#include "pp/graph.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

GraphScheduler::GraphScheduler(int k, const pp::InteractionGraph& graph,
                               std::vector<int> initial_states, rng::Rng rng)
    : protocol_(k),
      graph_(graph),
      states_(std::move(initial_states)),
      counts_(static_cast<std::size_t>(protocol_.num_states()), 0),
      rng_(rng) {
  KUSD_CHECK_MSG(states_.size() == graph.num_vertices(),
                 "one initial state per vertex required");
  for (int s : states_) {
    KUSD_CHECK_MSG(s >= 0 && s < protocol_.num_states(),
                   "initial state out of range");
    ++counts_[static_cast<std::size_t>(s)];
  }
}

void GraphScheduler::step() {
  const auto [responder, initiator] = graph_.sample_pair(rng_);
  const int rs = states_[responder];
  ++steps_;
  // The USD never changes the initiator (pinned by
  // UsdProtocol.OnlyResponderEverChanges), so only the responder is written.
  const int next = protocol_.apply(rs, states_[initiator]).responder;
  if (next != rs) {
    states_[responder] = next;
    --counts_[static_cast<std::size_t>(rs)];
    ++counts_[static_cast<std::size_t>(next)];
  }
}

}  // namespace kusd::core
