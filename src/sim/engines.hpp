// Built-in engine adapters and their registration.
//
// The adapters wrap the concrete simulators (core::UsdSimulator,
// core::BatchedUsdSimulator, core::SyncUsd, gossip::GossipUsd,
// core::GraphScheduler) behind sim::Engine without changing their dynamics:
// each adapter drives the exact step/chunk/round calls the simulator's own
// run loop would, so seeded trajectories are identical to driving the
// simulator directly.
#pragma once

#include <cstdint>

#include "pp/configuration.hpp"
#include "sim/registry.hpp"

namespace kusd::sim {

/// Register the built-in engines (every, skip, batched, sync, gossip,
/// graph) into `registry`. Called once by the Registry constructor.
void register_builtin_engines(Registry& registry);

/// Generous round caps used as the sync/gossip default budgets: the
/// synchronized variant is O(log^2 n) super-rounds w.h.p., gossip
/// O(k log n) rounds.
[[nodiscard]] std::uint64_t sync_round_cap(pp::Count n);
[[nodiscard]] std::uint64_t gossip_round_cap(pp::Count n, int k);

}  // namespace kusd::sim
