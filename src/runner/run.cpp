#include "runner/run.hpp"

#include <span>
#include <string>

#include "core/bias.hpp"
#include "core/chunk_controller.hpp"
#include "pp/configuration.hpp"
#include "runner/sweep.hpp"
#include "sim/registry.hpp"

namespace kusd::runner {

RunResult run_usd(const pp::Configuration& initial, std::uint64_t seed,
                  RunOptions options) {
  RunResult result;
  result.initial_plurality = initial.argmax();

  // The run is a one-trial sweep point seeded with `seed` itself.
  SweepPoint point;
  point.engine = options.engine;
  point.graph = options.graph;
  point.n = initial.n();
  point.k = initial.k();
  const PointTopology topology = realize_topology(point, seed);
  if (foregone_timeout(topology, 0, initial)) {
    result.interactions = trial_budget(0, point);
    result.parallel_time = static_cast<double>(result.interactions) /
                           static_cast<double>(initial.n());
    return result;
  }
  const auto engine = sim::Registry::instance().create(
      options.engine, initial, seed,
      engine_options(core::ChunkOptions{}, point, topology));

  core::PhaseTracker tracker(initial.n());
  result.converged = engine->run_observed(
      engine->default_budget(), engine->default_observe_interval(),
      [&tracker](std::uint64_t t, std::span<const pp::Count> opinions,
                 pp::Count undecided) {
        tracker.observe(t, opinions, undecided);
      });
  result.phases = tracker.times();

  result.interactions = engine->elapsed();
  result.parallel_time = engine->parallel_time();
  if (result.converged) {
    result.winner = engine->consensus_opinion();
    result.plurality_won = result.winner == result.initial_plurality;
    result.winner_initially_significant =
        core::is_significant(initial, result.winner,
                             core::kSignificanceAlpha);
  }
  return result;
}

}  // namespace kusd::runner
