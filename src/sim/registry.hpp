// String-keyed engine factory.
//
// The Registry maps an engine name — the spelling used by `--engine`, the
// sweep's `engine` CSV/JSONL column, and RunOptions::engine — to a factory
// plus the metadata the drivers need to validate a request upfront
// (population caps, start-profile constraints, which option groups the
// engine reads). All engine construction in runner::run_usd, runner::Sweep
// and kusd_cli goes through here; there is no per-engine switch anywhere
// above the factories, which construct the simulators (each a
// core::Engine) directly.
//
// Registering an engine, a simulator that implements core::Engine:
//
//   sim::Registry::instance().add("my-engine", {
//       .factory = [](const pp::Configuration& x0, std::uint64_t seed,
//                     const sim::EngineOptions& options) {
//         return std::make_unique<MySimulator>(x0, rng::Rng(seed),
//                                              options.batch);
//       },
//       .description = "one-line summary for --help and docs",
//   });
//
// after which `kusd run/sweep --engine my-engine` and RunOptions::engine =
// "my-engine" work with no further changes. Registration is not
// thread-safe against concurrent create(); register at startup.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pp/configuration.hpp"
#include "sim/engine.hpp"

namespace kusd::sim {

/// One trial's outcome from a many-trial batch run (EngineInfo::lockstep).
struct LockstepTrialResult {
  /// Cross-engine comparable time (interactions / n for the tau-leap
  /// kernel), at consensus or at the budget.
  double parallel_time = 0.0;
  bool converged = false;
  /// Consensus opinion; -1 when the trial timed out.
  int winner = -1;
};

struct EngineInfo {
  std::function<std::unique_ptr<Engine>(
      const pp::Configuration& initial, std::uint64_t seed,
      const EngineOptions& options)>
      factory;
  std::string description;
  /// The generous native-time cap Engine::default_budget() would return
  /// for an (n, k) population, published statically so drivers can report
  /// a budget without constructing (or running) an engine — e.g. the
  /// sweep's disconnected short-circuit records its timeout horizon from
  /// here. Unset falls back to core::default_interaction_cap.
  std::function<std::uint64_t(pp::Count n, int k)> default_budget;
  /// Largest supported population (0 = unlimited). The per-interaction
  /// and graph engines cap n below 2^32.
  pp::Count max_n = 0;
  /// The engine rejects configurations with undecided agents (sync).
  bool requires_decided_start = false;
  /// The engine reads EngineOptions::graph / shared_graph, so it
  /// participates in the sweep's `--graph` topology axis.
  bool uses_graph_axis = false;
  /// The engine reads EngineOptions::batch (chunk schedule).
  bool uses_chunk_options = false;
  /// The engine serves its `--graph` axis through degree-class
  /// aggregation (EngineOptions::shared_degrees, a pp::DegreeClassModel)
  /// and never materializes an edge set — so sweeps must not build one
  /// either (a materialized topology is Theta(n * d) memory; the whole
  /// point of an aggregated engine is to run where that is impossible).
  bool aggregated_topology = false;
  /// A many-trial entry point: all of `seeds`' trials run from `initial`
  /// until consensus or `budget` native time, results in seed order;
  /// throws util::CheckError on an empty `seeds`. Trial t must equal the
  /// single-trial engine run with seeds[t]. Only batched-lockstep sets it,
  /// as a loop over the `batched` engine kept for kusdbench's trace;
  /// drivers never need it (runner::Sweep runs every engine one seed at a
  /// time through `factory`).
  std::function<std::vector<LockstepTrialResult>(
      const pp::Configuration& initial, std::span<const std::uint64_t> seeds,
      const EngineOptions& options, std::uint64_t budget)>
      lockstep = nullptr;
};

class Registry {
 public:
  /// A fresh registry pre-populated with the built-in engines (every,
  /// skip, batched, batched-lockstep, sync, gossip, graph, graph-batched).
  Registry();

  /// The process-wide registry used by run_usd / Sweep / the CLI.
  static Registry& instance();

  /// Throws util::CheckError on an empty name, a duplicate, or a missing
  /// factory.
  void add(std::string name, EngineInfo info);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// nullptr when the name is unknown.
  [[nodiscard]] const EngineInfo* find(const std::string& name) const;
  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string> names() const;
  /// The names() list joined with commas (for error messages / usage).
  [[nodiscard]] std::string names_joined() const;

  /// Construct an engine. Throws util::CheckError for unknown names (and
  /// whatever the engine's own validation throws).
  [[nodiscard]] std::unique_ptr<Engine> create(
      const std::string& name, const pp::Configuration& initial,
      std::uint64_t seed, const EngineOptions& options = {}) const;

 private:
  std::map<std::string, EngineInfo> engines_;
};

}  // namespace kusd::sim
