// High-level one-call runner: run the USD from an initial configuration,
// track the five phases, and classify the outcome against the paper's
// claims (did the initial plurality win? was the winner initially
// significant?). This is the entry point of `kusd run` and the examples.
//
// The engine is resolved by name through sim::Registry
// (RunOptions::engine): the asynchronous engines, the round models
// ("sync", "gossip") and the graph-restricted scheduler ("graph", with
// RunOptions::graph selecting the topology). The batched engines run the
// default chunk schedule, fixed chunks of 2% of n.
//
// The trial is built the way runner::Sweep builds one (runner/sweep.hpp):
// the topology comes from realize_topology, from the stream the engine
// would build its own from. The trial runs under the engine's own budget
// (for the asynchronous engines 64 * k * n * (ln n + 1), several times the
// paper's O(k n log n)), so a disconnected topology is the sweep's
// foregone timeout. Phases are observed through sim::Engine::run_observed,
// the one observation loop.
//
// This driver lives in runner — above sim in the layering DAG — because
// it resolves engines by name through the registry; core stays below sim
// and never sees the engine roster.
#pragma once

#include <cstdint>
#include <string>

#include "core/phase_tracker.hpp"
#include "pp/configuration.hpp"
#include "sim/graph_spec.hpp"

namespace kusd::runner {

struct RunOptions {
  /// sim::Registry name of the engine to run ("every", "skip", "batched",
  /// "sync", "gossip", "graph", or anything registered).
  std::string engine = "skip";
  /// Topology for the graph engine.
  sim::GraphSpec graph;
  /// Track T1..T5 from snapshots at the engine's observation interval
  /// (n/8 interactions, a resolution far below the phase lengths, or one
  /// round).
  bool track_phases = true;
};

struct RunResult {
  bool converged = false;
  /// Consensus opinion (valid iff converged).
  int winner = -1;
  /// Native time until consensus (or the cap if not converged):
  /// interactions for the asynchronous engines, super-rounds/rounds for
  /// the synchronous ones.
  std::uint64_t interactions = 0;
  /// Cross-engine comparable time: interactions / n for the asynchronous
  /// engines, total rounds for sync/gossip.
  double parallel_time = 0.0;
  core::PhaseTimes phases;

  // Outcome vs the initial configuration:
  int initial_plurality = -1;
  bool plurality_won = false;
  /// Whether the winner was significant at t = 0 (Theorem 2's no-bias
  /// guarantee), at core::kSignificanceAlpha like the phases.
  bool winner_initially_significant = false;
};

/// Run the USD once from `initial` with a deterministic seed.
[[nodiscard]] RunResult run_usd(const pp::Configuration& initial,
                                std::uint64_t seed, RunOptions options = {});

}  // namespace kusd::runner
