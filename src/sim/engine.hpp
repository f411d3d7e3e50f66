// The unified simulator interface.
//
// Every way of running the USD — per-interaction, geometric-skip, chunked
// tau-leap, synchronized rounds, gossip rounds, graph-restricted — is a
// sim::Engine: construct from a pp::Configuration and a 64-bit seed,
// advance() through native time, inspect incremental counts()/undecided(),
// and compare across engines through parallel_time(). The experiment
// drivers (runner::run_usd, runner::Sweep, kusd_cli) are written once
// against this interface and resolve concrete engines through the
// string-keyed sim::Registry, so adding an engine is a one-file change:
// implement the adapter, register it, and every driver (run/sweep/bench,
// CSV/JSONL schema, CLI parsing) picks it up.
//
// Native time. Each engine counts time in its own natural unit —
// interactions for the asynchronous engines (every/skip/batched/graph),
// super-rounds for sync, rounds for gossip. advance() budgets,
// elapsed(), default_budget() and observer timestamps are all in native
// units; parallel_time() is the cross-engine comparable metric
// (interactions / n for the asynchronous engines, total rounds for the
// synchronous ones).
//
// Observation. run_observed() is the one observation loop of the code
// base (the simulators below sim have none): it fires the observer before
// the first step, at interval boundaries, and once more after the last
// step. Boundary exactness is engine-dependent but never worse than the
// engine's step granularity: the batched engines clamp chunks to land
// exactly on every boundary, per-interaction engines land exactly by
// construction, and the skip engine fires at the first productive step
// past a boundary (its jumps are not splittable without resampling).
// Whether a topology is connected is a property of the realized topology,
// not of an engine: drivers read it from runner::realize_topology.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "core/chunk_controller.hpp"
#include "pp/configuration.hpp"
#include "sim/graph_spec.hpp"

namespace kusd::pp {
class DegreeClassModel;
class InteractionGraph;
}  // namespace kusd::pp

namespace kusd::sim {

/// Snapshot hook: (native time, per-opinion counts, undecided count).
using Observer =
    std::function<void(std::uint64_t t, std::span<const pp::Count> opinions,
                       pp::Count undecided)>;

/// Per-engine knobs, passed through Registry::create. Engines read only
/// the fields that concern them and ignore the rest, so one options
/// struct serves every registry entry.
struct EngineOptions {
  /// Chunk schedule of the "batched" engine.
  core::ChunkOptions batch;
  /// Topology of the graph engines (ignored when shared_graph /
  /// shared_degrees is set, except that callers should keep the two
  /// consistent for reporting).
  GraphSpec graph;
  /// Pre-built topology for the "graph" engine, not owned: a sweep builds
  /// the graph once per grid point and shares it across trials. Must have
  /// exactly n vertices. nullptr = the engine builds its own from `graph`
  /// with a seed-derived stream.
  const pp::InteractionGraph* shared_graph = nullptr;
  /// Pre-built degree-class aggregation for aggregated graph engines
  /// ("graph-batched"), not owned; the sweep's analogue of shared_graph
  /// for engines that never materialize an edge set. Must cover exactly n
  /// vertices. nullptr = the engine aggregates its own from `graph` with
  /// a seed-derived stream.
  const pp::DegreeClassModel* shared_degrees = nullptr;
};

/// Overflow-safe native-time target arithmetic for advance()
/// implementations: elapsed + budget, saturating at the uint64 max.
[[nodiscard]] inline std::uint64_t saturating_add(std::uint64_t a,
                                                  std::uint64_t b) {
  return b > ~std::uint64_t{0} - a ? ~std::uint64_t{0} : a + b;
}

class Engine {
 public:
  virtual ~Engine() = default;

  /// Advance by at most `budget` additional native time units, stopping
  /// early at consensus. Engines whose steps are coarser than one unit
  /// may overshoot the final step (see the file comment); the batched
  /// engine clamps and is exact.
  virtual void advance(std::uint64_t budget) = 0;

  /// Per-opinion counts (k entries), maintained incrementally.
  [[nodiscard]] virtual std::span<const pp::Count> counts() const = 0;
  [[nodiscard]] virtual pp::Count undecided() const = 0;
  [[nodiscard]] virtual pp::Count n() const = 0;
  /// Native time elapsed so far.
  [[nodiscard]] virtual std::uint64_t elapsed() const = 0;
  /// Cross-engine comparable time (see the file comment).
  [[nodiscard]] virtual double parallel_time() const = 0;
  [[nodiscard]] virtual bool is_consensus() const = 0;
  /// Only valid when is_consensus().
  [[nodiscard]] virtual int consensus_opinion() const = 0;
  /// A generous native-time cap for runs that should reach consensus
  /// (the per-engine analogue of core::default_interaction_cap).
  [[nodiscard]] virtual std::uint64_t default_budget() const = 0;
  /// Native-time observation interval giving phase-tracking resolution
  /// well below phase lengths (n/8 interactions; 1 round).
  [[nodiscard]] virtual std::uint64_t default_observe_interval() const = 0;

  [[nodiscard]] int k() const { return static_cast<int>(counts().size()); }

  /// Run until consensus or until `max_native` total native time has
  /// elapsed. Returns true iff consensus was reached.
  bool run_to_consensus(std::uint64_t max_native);

  /// Like run_to_consensus, observing before the first step, at each
  /// multiple of `interval`, and after the last step (see the file
  /// comment for per-engine boundary exactness).
  bool run_observed(std::uint64_t max_native, std::uint64_t interval,
                    const Observer& observer);
};

}  // namespace kusd::sim
