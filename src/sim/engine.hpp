// The engine options of the sim layer, and the names the drivers use for
// the engine interface.
//
// The interface itself is core::Engine (core/engine.hpp), which the
// simulators implement; sim::Engine and sim::Observer name it here so
// every driver, test and example spells the registry's engines the same
// way. EngineOptions is sim's because its topology fields are sim's: the
// GraphSpec axis and the shared topologies of the `graph` engines.
#pragma once

#include "core/chunk_controller.hpp"
#include "core/engine.hpp"
#include "sim/graph_spec.hpp"

namespace kusd::pp {
class DegreeClassModel;
class InteractionGraph;
}  // namespace kusd::pp

namespace kusd::sim {

using Engine = core::Engine;
using Observer = core::Observer;

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

}  // namespace kusd::sim
