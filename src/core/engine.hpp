// The unified simulator interface.
//
// Every way of running the USD — per-interaction, geometric-skip, chunked
// tau-leap, synchronized rounds, gossip rounds, graph-restricted — is an
// Engine: construct from a pp::Configuration and a seed, advance() through
// native time, inspect incremental counts()/undecided(), and compare across
// engines through parallel_time(). The simulators themselves implement it
// (core::UsdSimulator, core::BatchedUsdSimulator, core::SyncUsd,
// gossip::GossipUsd), and so do sim's two engines that own a topology
// (`graph` and sim::BatchedGraphEngine's `graph-batched`). The drivers
// (runner::run_usd, runner::Sweep, kusd_cli) are written once against
// this interface and resolve engines by name through sim::Registry, so
// adding an engine is one class plus one registration.
//
// Native time. Each engine counts time in its own natural unit —
// interactions for the asynchronous engines (every/skip/batched/graph),
// super-rounds for sync, rounds for gossip. advance() budgets,
// elapsed(), default_budget() and observer timestamps are all in native
// units; parallel_time() is the cross-engine comparable metric
// (interactions / n for the asynchronous engines, total rounds for the
// synchronous ones).
//
// Running. run_to_consensus() and run_observed() are the code base's only
// run loops; an engine supplies advance() and no loop of its own.
// run_observed() fires the observer before the first step, at interval
// boundaries, and once more after the last step. Boundary exactness is
// engine-dependent but never worse than the engine's step granularity:
// the batched engines clamp chunks to land exactly on every boundary and
// on the run's cap, per-interaction and round engines land exactly by
// construction, and the skip engine fires at the first productive step
// past a boundary (its jumps are not splittable without resampling).
// Whether a topology is connected is a property of the realized topology,
// not of an engine: drivers read it from runner::realize_topology.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "pp/configuration.hpp"

namespace kusd::core {

/// Snapshot hook: (native time, per-opinion counts, undecided count).
using Observer =
    std::function<void(std::uint64_t t, std::span<const pp::Count> opinions,
                       pp::Count undecided)>;

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
  /// engines clamp and are exact.
  virtual void advance(std::uint64_t budget) = 0;

  /// Per-opinion counts (k entries), maintained incrementally.
  [[nodiscard]] virtual std::span<const pp::Count> counts() const = 0;
  [[nodiscard]] virtual pp::Count undecided() const = 0;
  [[nodiscard]] virtual pp::Count n() const = 0;
  /// Native time elapsed so far.
  [[nodiscard]] virtual std::uint64_t elapsed() const = 0;
  [[nodiscard]] virtual bool is_consensus() const = 0;
  /// Only valid when is_consensus().
  [[nodiscard]] virtual int consensus_opinion() const = 0;

  // The three defaults below are the asynchronous engines', whose native
  // time is interactions; the round models (sync, gossip) override them.

  /// Cross-engine comparable time (see the file comment): interactions / n.
  [[nodiscard]] virtual double parallel_time() const;
  /// A generous native-time cap for runs that should reach consensus:
  /// default_interaction_cap (sync_round_cap, gossip_round_cap).
  [[nodiscard]] virtual std::uint64_t default_budget() const;
  /// Native-time observation interval giving phase-tracking resolution
  /// well below phase lengths: n/8 interactions (1 round).
  [[nodiscard]] virtual std::uint64_t default_observe_interval() const;

  [[nodiscard]] int k() const { return static_cast<int>(counts().size()); }
  /// The current counts as a configuration.
  [[nodiscard]] pp::Configuration configuration() const {
    return pp::Configuration(
        std::vector<pp::Count>(counts().begin(), counts().end()),
        undecided());
  }

  /// Run until consensus or until `max_native` total native time has
  /// elapsed. Returns true iff consensus was reached.
  bool run_to_consensus(std::uint64_t max_native);

  /// Like run_to_consensus, observing before the first step, at each
  /// multiple of `interval`, and after the last step (see the file
  /// comment for per-engine boundary exactness).
  bool run_observed(std::uint64_t max_native, std::uint64_t interval,
                    const Observer& observer);
};

}  // namespace kusd::core
