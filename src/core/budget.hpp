// Default native-time budgets of the engines: each engine's
// Engine::default_budget(), and the published copies the registry hands
// to drivers that report a cap without constructing an engine
// (sim::EngineInfo::default_budget).
#pragma once

#include <cmath>
#include <cstdint>

#include "pp/configuration.hpp"

namespace kusd::core {

/// Generous default interaction cap for the asynchronous engines:
/// 64 * k * n * (ln n + 1) — several times the paper's O(k n log n)
/// convergence bound. Used when a driver passes cap 0.
[[nodiscard]] inline std::uint64_t default_interaction_cap(pp::Count n,
                                                           int k) {
  const double dn = static_cast<double>(n);
  const double cap = 64.0 * static_cast<double>(k) * dn * (std::log(dn) + 1.0);
  // Populations the batched engine reaches can push the formula past
  // uint64 range; saturate instead of an unrepresentable (UB) cast.
  constexpr double kMax = 18446744073709549568.0;  // largest double < 2^64
  return cap >= kMax ? ~std::uint64_t{0} : static_cast<std::uint64_t>(cap);
}

/// Generous round caps of the round models: the synchronized variant
/// (SyncUsd, super-rounds) is O(log^2 n) w.h.p., gossip (GossipUsd,
/// rounds) O(k log n).
[[nodiscard]] inline std::uint64_t sync_round_cap(pp::Count n) {
  const double lg = std::log2(static_cast<double>(n)) + 1.0;
  return static_cast<std::uint64_t>(64.0 * lg * lg) + 256;
}

[[nodiscard]] inline std::uint64_t gossip_round_cap(pp::Count n, int k) {
  const double lg = std::log2(static_cast<double>(n)) + 1.0;
  return static_cast<std::uint64_t>(64.0 * static_cast<double>(k) * lg) + 256;
}

}  // namespace kusd::core
