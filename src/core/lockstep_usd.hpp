// Structure-of-arrays lockstep kernel: many tau-leap trials per chunk.
//
// A sweep cell runs hundreds of trials of the same (configuration,
// ChunkOptions) point, differing only in their Philox-derived Rng streams.
// BatchedUsdSimulator walks them one at a time; LockstepRoundEngine
// advances all of them together, one chunk per trial per pass, with the
// per-trial state held trial-major (counts[trial * k + opinion]) and the
// conditional-binomial multinomial draws batched family-by-family across
// trials (rng::binomial_batch).
//
// The defining contract is *per-stream bit-identity*: trial t of a
// lockstep run makes exactly the draw sequence, chunk schedule, and
// halve-on-overshoot decisions that
//     BatchedUsdSimulator(initial, rng::Rng(seeds[t]), options)
// would make alone, because every draw of trial t comes from trial t's own
// stream and the kernel replays RoundEngine::try_async_chunk +
// Rng::multinomial_into arithmetic in the same order per trial. Batch
// composition is therefore invisible: adding, removing, or reordering the
// other trials of a batch cannot change any trial's trajectory, finished
// trials are masked out of the active set without disturbing the rest,
// and KS fidelity vs the exact chain is inherited from the scalar engine
// (pinned by tests/test_lockstep.cpp).
//
// Each trial keeps its own ChunkController: the cell shares one schedule
// *policy* (the ChunkOptions), while the adaptive controller state stays
// per-trial — exactly what the scalar engines do, and required for the
// bit-identity above (reject feedback and the drift trend are
// trajectory-dependent).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/chunk_controller.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"

namespace kusd::core {

class LockstepRoundEngine {
 public:
  /// One trial per entry of `seeds`, all starting from `initial`. Trial t
  /// draws from rng::Rng(seeds[t]).
  LockstepRoundEngine(const pp::Configuration& initial,
                      std::span<const std::uint64_t> seeds,
                      ChunkOptions options = {});

  [[nodiscard]] std::size_t trials() const { return undecided_.size(); }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] pp::Count n() const { return n_; }

  /// Advance every trial until it reaches consensus or `target` total
  /// interactions, whichever comes first. Chunks are clamped to land
  /// exactly on `target` (the batched engine's boundary-exactness
  /// contract), so repeated calls with growing targets tile a trajectory
  /// without overshoot. Already-finished trials are skipped.
  void advance_all(std::uint64_t target);

  /// Trials that have not yet reached consensus.
  [[nodiscard]] std::size_t unfinished() const;

  // ---- Per-trial inspection (mirrors BatchedUsdSimulator) ----
  [[nodiscard]] std::span<const pp::Count> counts(std::size_t t) const {
    return {&counts_[t * static_cast<std::size_t>(k_)],
            static_cast<std::size_t>(k_)};
  }
  [[nodiscard]] pp::Count undecided(std::size_t t) const {
    return undecided_[t];
  }
  [[nodiscard]] std::uint64_t interactions(std::size_t t) const {
    return interactions_[t];
  }
  /// Multinomial chunks drawn for trial t (including halved retries).
  [[nodiscard]] std::uint64_t chunks(std::size_t t) const {
    return chunks_[t];
  }
  [[nodiscard]] bool is_consensus(std::size_t t) const {
    return winner_[t] >= 0;
  }
  /// Only valid when is_consensus(t).
  [[nodiscard]] int consensus_opinion(std::size_t t) const {
    return winner_[t];
  }

 private:
  int k_;
  pp::Count n_;
  // Trial-major SoA state: counts_[t * k + j], the rest indexed by trial.
  std::vector<pp::Count> counts_;
  std::vector<pp::Count> undecided_;
  std::vector<rng::Rng> rngs_;
  std::vector<ChunkController> controllers_;
  std::vector<std::uint64_t> interactions_;
  std::vector<std::uint64_t> chunks_;
  std::vector<int> winner_;  // -1 = still running

  // advance_all scratch, indexed by trial (events_/weights_ by trial *
  // (2k + 1) + family). Kept across calls to avoid reallocation.
  std::vector<std::uint32_t> active_;
  std::vector<std::uint8_t> pending_retry_;
  std::vector<std::uint64_t> m_;
  std::vector<std::uint64_t> remaining_;
  std::vector<double> remaining_weight_;
  std::vector<double> weights_;
  std::vector<std::uint64_t> events_;
  // Gather buffers of the per-family batched binomial call.
  std::vector<rng::Rng*> batch_rngs_;
  std::vector<std::uint64_t> batch_ns_;
  std::vector<double> batch_ps_;
  std::vector<std::uint64_t> batch_out_;
  std::vector<std::uint32_t> batch_trials_;
};

}  // namespace kusd::core
