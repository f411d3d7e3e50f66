#include "core/batched_usd.hpp"

#include <algorithm>

#include "core/stepping.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

BatchedUsdSimulator::BatchedUsdSimulator(const pp::Configuration& initial,
                                         rng::Rng rng, BatchedOptions options)
    : opinions_(initial.opinions().begin(), initial.opinions().end()),
      undecided_(initial.undecided()),
      n_(initial.n()),
      controller_(options, initial.n()),
      engine_(initial.k()),
      rng_(rng) {
  KUSD_CHECK_MSG(initial.decided() >= 1,
                 "an all-undecided population never converges");
  for (int i = 0; i < initial.k(); ++i) {
    if (initial.opinion(i) == n_) winner_ = i;
  }
}

void BatchedUsdSimulator::step(std::uint64_t max_length) {
  KUSD_DCHECK(!winner_.has_value());
  interactions_ += tau_leap_step(controller_, engine_, opinions_,
                                 std::span(&undecided_, 1), kUnitWeight,
                                 max_length, rng_, chunks_);
  // A consensus has no undecided agents, so the O(k) scan can wait.
  if (undecided_ != 0) return;
  for (std::size_t i = 0; i < opinions_.size(); ++i) {
    if (opinions_[i] == n_) winner_ = static_cast<int>(i);
  }
}

bool BatchedUsdSimulator::run_to_consensus(std::uint64_t max_interactions) {
  return detail::run_sim_to_consensus(*this, max_interactions);
}

bool BatchedUsdSimulator::run_observed(std::uint64_t max_interactions,
                                       std::uint64_t interval,
                                       const UsdSimulator::Observer& observer) {
  KUSD_CHECK_MSG(interval > 0, "observer interval must be positive");
  // Unlike the shared driver in stepping.hpp (which reports at the first
  // step past each boundary — the right contract for engines advancing one
  // interaction at a time), chunks here are clamped so the trajectory
  // lands exactly on every multiple of `interval`: phase-tracker
  // milestones are then measured at the boundary itself instead of up to a
  // chunk later.
  observer(interactions_, opinions_, undecided_);
  std::uint64_t next = interactions_ + interval;
  while (!is_consensus() && interactions_ < max_interactions) {
    const std::uint64_t stop = std::min(next, max_interactions);
    step(stop - interactions_);
    if (interactions_ == next) {
      observer(interactions_, opinions_, undecided_);
      next += interval;
    }
  }
  observer(interactions_, opinions_, undecided_);
  return is_consensus();
}

}  // namespace kusd::core
