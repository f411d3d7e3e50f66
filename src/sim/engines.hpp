// The built-in engines and their registration.
//
// Most entries construct a simulator directly: `every` and `skip` are
// core::UsdSimulator, `batched` (and its alias `batched-lockstep`) is
// core::BatchedUsdSimulator, `sync` is core::SyncUsd and `gossip` is
// gossip::GossipUsd, each a core::Engine itself. The two engines that own
// a topology are sim's own: `graph` (core::GraphScheduler over a realized
// edge set, in engines.cpp) and `graph-batched` (sim::BatchedGraphEngine).
#pragma once

#include "core/budget.hpp"
#include "sim/registry.hpp"

namespace kusd::sim {

/// Register the built-in engines into `registry`. Called once by the
/// Registry constructor.
void register_builtin_engines(Registry& registry);

/// The round models' default budgets live in core/budget.hpp; these keep
/// the sim:: spelling that kusdbench's trace driver reads.
using core::gossip_round_cap;
using core::sync_round_cap;

}  // namespace kusd::sim
