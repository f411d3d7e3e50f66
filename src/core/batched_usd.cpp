#include "core/batched_usd.hpp"

#include "core/stepping.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd::core {

BatchedUsdSimulator::BatchedUsdSimulator(const pp::Configuration& initial,
                                         rng::Rng rng, ChunkOptions options)
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

}  // namespace kusd::core
