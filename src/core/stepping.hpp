// The tau-leap step, shared by BatchedUsdSimulator and
// sim::BatchedGraphEngine so the two engines cannot drift apart: the
// first runs it with one class of weight 1, the second over degree
// classes. Running and observation are Engine's (core/engine.hpp).
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
