#include "core/engine.hpp"

#include <algorithm>

#include "core/budget.hpp"
#include "util/check.hpp"

namespace kusd::core {

double Engine::parallel_time() const {
  return static_cast<double>(elapsed()) / static_cast<double>(n());
}

std::uint64_t Engine::default_budget() const {
  return default_interaction_cap(n(), k());
}

std::uint64_t Engine::default_observe_interval() const {
  return std::max<std::uint64_t>(1, n() / 8);
}

bool Engine::run_to_consensus(std::uint64_t max_native) {
  while (!is_consensus() && elapsed() < max_native) {
    advance(max_native - elapsed());
  }
  return is_consensus();
}

bool Engine::run_observed(std::uint64_t max_native, std::uint64_t interval,
                          const Observer& observer) {
  KUSD_CHECK_MSG(interval > 0, "observer interval must be positive");
  observer(elapsed(), counts(), undecided());
  std::uint64_t next = elapsed() + interval;
  while (!is_consensus() && elapsed() < max_native) {
    // Advancing to the boundary (not the cap) lets exact engines land on
    // it; coarse-stepping engines overshoot by at most one step, and the
    // catch-up loop below re-aligns `next` either way.
    advance(std::min(next, max_native) - elapsed());
    if (elapsed() >= next) {
      observer(elapsed(), counts(), undecided());
      do {
        next += interval;
      } while (next <= elapsed());
    }
  }
  observer(elapsed(), counts(), undecided());
  return is_consensus();
}

}  // namespace kusd::core
