// Batched simulator for the asynchronous USD chain: Θ(n) interactions per
// O(k) work via chunked Poissonization (tau-leaping).
//
// Each step freezes the per-interaction transition rates at the current
// configuration and draws the aggregate event counts of a whole chunk of
// interactions from one multinomial: the class-structured tau-leap of
// RoundEngine and ChunkController (core::tau_leap_step) with one class of
// weight 1, which sim::BatchedGraphEngine runs over degree classes. This
// is the standard tau-leap approximation of the jump chain: exact when
// the chunk is a single interaction, and accurate whenever the rates
// change little across a chunk. The chunk length comes from a
// ChunkController — a fixed fraction of n (ChunkPolicy::kFixed, the
// bit-compatible default) or an error-controlled adaptive schedule
// (ChunkPolicy::kAdaptive) that bounds the predicted rate drift per chunk
// (see chunk_controller.hpp). Chunks that would overshoot a count are
// halved and redrawn down to a single interaction, which is always exact,
// so the simulator is well-defined in every state. The approximation
// quality is validated against StepMode::kEveryInteraction by KS property
// tests (tests/test_batched_usd.cpp, tests/test_chunk_controller.cpp).
//
// Unlike UsdSimulator, populations are not limited to 32 bits: only k+1
// counts are stored, so n = 10^9 and beyond run comfortably (see
// bench_batched_rounds.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/chunk_controller.hpp"
#include "core/round_engine.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"

namespace kusd::core {

/// Chunk-schedule options of the batched engine. The alias keeps PR-2
/// call sites (brace-initializing the leading chunk_fraction) meaning "fixed-fraction chunks".
using BatchedOptions = ChunkOptions;

class BatchedUsdSimulator {
 public:
  BatchedUsdSimulator(const pp::Configuration& initial, rng::Rng rng,
                      BatchedOptions options = {});

  /// Advance one chunk (possibly halved on overshoot; at least one
  /// interaction). The proposed chunk is clamped to `max_length`
  /// interactions, which run_observed uses to land exactly on observation
  /// boundaries.
  void step(std::uint64_t max_length = ~std::uint64_t{0});

  /// Run until consensus or until `max_interactions` have elapsed.
  bool run_to_consensus(std::uint64_t max_interactions);

  /// Same contract as UsdSimulator::run_observed, and exact about
  /// boundaries: chunks are clamped so the observer fires exactly at every
  /// multiple of `interval` (and never past `max_interactions`), rather
  /// than at the first chunk boundary beyond it.
  bool run_observed(std::uint64_t max_interactions, std::uint64_t interval,
                    const UsdSimulator::Observer& observer);

  // ---- Inspection (mirrors UsdSimulator) ----
  [[nodiscard]] std::uint64_t interactions() const { return interactions_; }
  /// Number of multinomial chunks drawn so far (including halved retries).
  [[nodiscard]] std::uint64_t chunks() const { return chunks_; }
  [[nodiscard]] pp::Count n() const { return n_; }
  [[nodiscard]] int k() const { return static_cast<int>(opinions_.size()); }
  [[nodiscard]] std::span<const pp::Count> opinions() const {
    return opinions_;
  }
  [[nodiscard]] pp::Count opinion(int i) const {
    return opinions_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] pp::Count undecided() const { return undecided_; }
  [[nodiscard]] bool is_consensus() const { return winner_.has_value(); }
  [[nodiscard]] int consensus_opinion() const { return *winner_; }
  [[nodiscard]] pp::Configuration configuration() const {
    return pp::Configuration(opinions_, undecided_);
  }

 private:
  std::vector<pp::Count> opinions_;
  pp::Count undecided_;
  pp::Count n_;
  ChunkController controller_;
  RoundEngine engine_;
  rng::Rng rng_;
  std::uint64_t interactions_ = 0;
  std::uint64_t chunks_ = 0;
  std::optional<int> winner_;
};

}  // namespace kusd::core
