// High-level one-call runner: run the USD from an initial configuration,
// track the five phases, and classify the outcome against the paper's
// claims (did the initial plurality win? was the winner initially
// significant?). This is the entry point the examples and most benches use.
//
// The engine is resolved by name through sim::Registry
// (RunOptions::engine): the asynchronous engines, the round models
// ("sync", "gossip") and the graph-restricted scheduler ("graph", with
// RunOptions::graph selecting the topology).
//
// This driver lives in runner — above sim in the layering DAG — because
// it resolves engines by name through the registry; core stays below sim
// and never sees the engine roster.
#pragma once

#include <cstdint>
#include <string>

#include "core/batched_usd.hpp"
#include "core/phase_tracker.hpp"
#include "pp/configuration.hpp"
#include "sim/graph_spec.hpp"

namespace kusd::runner {

struct RunOptions {
  /// Hard cap in the engine's native time unit (interactions for the
  /// asynchronous engines, super-rounds/rounds for sync/gossip); 0 picks
  /// the engine's generous default budget (for the asynchronous engines,
  /// 64 * k * n * (ln n + 1) — several times the paper's O(k n log n)).
  std::uint64_t max_interactions = 0;
  /// sim::Registry name of the engine to run ("every", "skip", "batched",
  /// "sync", "gossip", "graph", or anything registered).
  std::string engine = "skip";
  /// Chunk schedule for the batched engine: fixed chunk fraction or the
  /// error-controlled adaptive policy (see chunk_controller.hpp).
  core::BatchedOptions batch;
  /// Topology for the graph engine.
  sim::GraphSpec graph;
  /// Track T1..T5; snapshots are taken every `observe_interval` native
  /// time units (0 picks the engine default: n/8 interactions — a
  /// resolution far below phase lengths — or one round).
  bool track_phases = true;
  std::uint64_t observe_interval = 0;
  /// Significance constant alpha of the paper.
  double alpha = 1.0;
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
  /// guarantee).
  bool winner_initially_significant = false;
};

/// Run the USD once from `initial` with a deterministic seed.
[[nodiscard]] RunResult run_usd(const pp::Configuration& initial,
                                std::uint64_t seed, RunOptions options = {});

}  // namespace kusd::runner
