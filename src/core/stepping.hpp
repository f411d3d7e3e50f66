// Shared stepping for the simulators, in one place so the engines cannot
// drift apart: the tau-leap step of BatchedUsdSimulator and
// sim::BatchedGraphEngine, and the run loops of UsdSimulator and
// BatchedUsdSimulator, which expose the same stepping surface (step /
// is_consensus / interactions / opinions / undecided).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/chunk_controller.hpp"
#include "core/round_engine.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

/// One tau-leap step: the controller's proposal, clamped to `max_length`,
/// drawn by the engine. A draw that overshoots a count is halved and
/// redrawn down to m == 1, one exact event of the chain, which always
/// succeeds. Every draw counts in `chunks`. Returns the interactions done.
inline std::uint64_t tau_leap_step(ChunkController& controller,
                                   RoundEngine& engine,
                                   std::span<pp::Count> opinions,
                                   std::span<pp::Count> undecided,
                                   std::span<const double> weights,
                                   std::uint64_t max_length, rng::Rng& rng,
                                   std::uint64_t& chunks) {
  KUSD_DCHECK(max_length >= 1);
  // A rejected draw leaves the configuration, and so its totals, as is.
  const WeightedTotals totals = engine.weigh(opinions, undecided, weights);
  std::uint64_t m = std::min(
      controller.propose_classes(opinions, undecided, weights, totals),
      max_length);
  while (true) {
    ++chunks;
    if (engine.try_async_class_chunk(opinions, undecided, weights, totals, m,
                                     rng)) {
      return m;
    }
    controller.on_reject();
    m = std::max<std::uint64_t>(1, m / 2);
  }
}

}  // namespace kusd::core

namespace kusd::core::detail {

template <typename Sim>
bool run_sim_to_consensus(Sim& sim, std::uint64_t max_interactions) {
  while (!sim.is_consensus() && sim.interactions() < max_interactions) {
    sim.step();
  }
  return sim.is_consensus();
}

/// Invokes `observer(t, opinions, undecided)` before the first step, at the
/// first step past each multiple of `interval`, and after the last step.
template <typename Sim, typename Observer>
bool run_sim_observed(Sim& sim, std::uint64_t max_interactions,
                      std::uint64_t interval, const Observer& observer) {
  KUSD_CHECK_MSG(interval > 0, "observer interval must be positive");
  observer(sim.interactions(), sim.opinions(), sim.undecided());
  std::uint64_t next = sim.interactions() + interval;
  while (!sim.is_consensus() && sim.interactions() < max_interactions) {
    sim.step();
    if (sim.interactions() >= next) {
      observer(sim.interactions(), sim.opinions(), sim.undecided());
      do {
        next += interval;
      } while (next <= sim.interactions());
    }
  }
  observer(sim.interactions(), sim.opinions(), sim.undecided());
  return sim.is_consensus();
}

}  // namespace kusd::core::detail
