#include "sim/lockstep_batched_engine.hpp"

#include "core/budget.hpp"
#include "core/lockstep_usd.hpp"
#include "pp/configuration.hpp"

namespace kusd::sim {

std::uint64_t LockstepBatchedEngine::default_budget() const {
  return core::default_interaction_cap(sim_.n(), sim_.k());
}

std::vector<LockstepTrialResult> run_lockstep_trials(
    const pp::Configuration& initial, std::span<const std::uint64_t> seeds,
    const core::ChunkOptions& options, std::uint64_t budget) {
  core::LockstepRoundEngine kernel(initial, seeds, options);
  kernel.advance_all(budget);
  std::vector<LockstepTrialResult> results(seeds.size());
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    results[t].converged = kernel.is_consensus(t);
    results[t].winner =
        results[t].converged ? kernel.consensus_opinion(t) : -1;
    results[t].parallel_time = static_cast<double>(kernel.interactions(t)) /
                               static_cast<double>(kernel.n());
  }
  return results;
}

}  // namespace kusd::sim
