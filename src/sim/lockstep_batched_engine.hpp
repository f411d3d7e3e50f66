// sim adapters over core::LockstepRoundEngine.
//
// Two surfaces, one kernel:
//
//  * LockstepBatchedEngine — the registry's `batched-lockstep` entry as a
//    normal single-trial sim::Engine (a one-trial lockstep batch), so
//    every driver written against the Engine interface (run_usd,
//    observers, the CLI) works unchanged. Because the kernel is
//    per-stream bit-identical to the scalar tau-leap, this adapter's
//    trajectory equals the `batched` engine's for the same (initial,
//    seed, options).
//  * run_lockstep_trials — the many-trial batch entry point published
//    through EngineInfo::lockstep.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/chunk_controller.hpp"
#include "core/lockstep_usd.hpp"
#include "pp/configuration.hpp"
#include "sim/engine.hpp"
#include "sim/registry.hpp"

namespace kusd::sim {

class LockstepBatchedEngine final : public Engine {
 public:
  LockstepBatchedEngine(const pp::Configuration& initial, std::uint64_t seed,
                        const core::ChunkOptions& options)
      : sim_(initial, std::span<const std::uint64_t>(&seed, 1), options) {}

  void advance(std::uint64_t budget) override {
    sim_.advance_all(saturating_add(sim_.interactions(0), budget));
  }
  std::span<const pp::Count> counts() const override {
    return sim_.counts(0);
  }
  pp::Count undecided() const override { return sim_.undecided(0); }
  pp::Count n() const override { return sim_.n(); }
  std::uint64_t elapsed() const override { return sim_.interactions(0); }
  double parallel_time() const override {
    return static_cast<double>(sim_.interactions(0)) /
           static_cast<double>(sim_.n());
  }
  bool is_consensus() const override { return sim_.is_consensus(0); }
  int consensus_opinion() const override { return sim_.consensus_opinion(0); }
  std::uint64_t default_budget() const override;
  std::uint64_t default_observe_interval() const override {
    return std::max<std::uint64_t>(1, sim_.n() / 8);
  }

 private:
  core::LockstepRoundEngine sim_;
};

/// The EngineInfo::lockstep runner of `batched-lockstep`: one lockstep
/// kernel pass over the whole seed batch, results in seed order. Each
/// trial's outcome is bit-identical to the single-trial engine run with
/// the same seed and budget.
[[nodiscard]] std::vector<LockstepTrialResult> run_lockstep_trials(
    const pp::Configuration& initial, std::span<const std::uint64_t> seeds,
    const core::ChunkOptions& options, std::uint64_t budget);

}  // namespace kusd::sim
