// "graph-batched": degree-aggregated tau-leaping over a GraphSpec
// topology — graph sweeps at the batched engine's population scale.
//
// The per-interaction "graph" engine is faithful to one realized edge set
// but stores O(n) vertex states and advances one edge per step, which
// stalls graph sweeps orders of magnitude below the batched engine's
// 10^9 populations. This engine is the aggregation-over-structure escape:
// the topology is collapsed to a pp::DegreeClassModel (a handful of
// (degree, size) classes), vertex state to per-(class, opinion) counts,
// and whole Theta(n)-interaction chunks advance through one multinomial
// draw over the (state-pair x degree-class) event families
// (core::RoundEngine::try_async_class_chunk) with chunk lengths scheduled
// by core::ChunkController::propose_classes: the same step
// (core::tau_leap_step) the batched engine takes with one class of
// weight 1. Chunks that overshoot a count are halved and redrawn down to
// m = 1 — a single interaction of the annealed chain, which is always
// exact — so near consensus the engine degrades gracefully to the exact
// per-interaction limit of its model, the role pp::GraphScheduler plays
// for the materialized engine.
//
// Model and its limits. The aggregation is the *annealed* (mean-field)
// scheduler: each interaction samples responder and initiator
// independently with probability proportional to degree, rather than
// along a fixed edge set. On `complete` this is exactly the
// edge-restricted scheduler's law (up to unproductive self-interactions),
// KS-tested against the per-interaction graph engine. On random regular
// and dense ER topologies it carries the standard O(1/d) mean-field bias:
// the quenched chain is *slower* (local opinion clustering the mean field
// does not see) — measured ~+50% consensus time at d = 8, ~+10% at
// d = 32, and below KS detectability at property-test scale by d = 64
// (tests/test_batched_graph.cpp pins both the dense agreement and the
// sparse bias direction/magnitude; bench_graph_batched records them).
// It deliberately does NOT capture slow mixing from low conductance:
// `cycle` runs at complete-graph speed here. Use the per-interaction
// "graph" engine when the quenched geometry is the point; use this
// engine when degree structure at scale is (see docs/architecture.md).
//
// Sparse er:<p> realizes a zero-degree class (isolated vertices), the
// aggregated analogue of a disconnected topology: such populations never
// reach consensus and the sweep reports them as connected=0 / timeout
// instead of running them (see runner::Sweep).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/chunk_controller.hpp"
#include "core/round_engine.hpp"
#include "pp/configuration.hpp"
#include "pp/degree_classes.hpp"
#include "rng/rng.hpp"
#include "sim/engine.hpp"

namespace kusd::sim {

class BatchedGraphEngine final : public Engine {
 public:
  BatchedGraphEngine(const pp::Configuration& initial, std::uint64_t seed,
                     const EngineOptions& options);

  void advance(std::uint64_t budget) override;
  [[nodiscard]] std::span<const pp::Count> counts() const override {
    return totals_;
  }
  [[nodiscard]] pp::Count undecided() const override {
    return undecided_total_;
  }
  [[nodiscard]] pp::Count n() const override { return n_; }
  [[nodiscard]] std::uint64_t elapsed() const override {
    return interactions_;
  }
  [[nodiscard]] double parallel_time() const override {
    return static_cast<double>(interactions_) / static_cast<double>(n_);
  }
  [[nodiscard]] bool is_consensus() const override {
    return winner_.has_value();
  }
  [[nodiscard]] int consensus_opinion() const override { return *winner_; }
  [[nodiscard]] std::uint64_t default_budget() const override;
  [[nodiscard]] std::uint64_t default_observe_interval() const override;
  /// The aggregated notion of connectivity: a realized zero-degree class
  /// is the only disconnection an annealed model can express.
  [[nodiscard]] std::optional<bool> topology_connected() const override {
    return !model_.has_isolated_vertices();
  }

  // ---- Introspection (tests, benches) ----
  /// Multinomial chunks drawn so far (including halved retries).
  [[nodiscard]] std::uint64_t chunks() const { return chunks_; }
  [[nodiscard]] const pp::DegreeClassModel& degree_model() const {
    return model_;
  }

 private:
  /// Advance one chunk, clamped to `max_length` interactions (halved on
  /// overshoot down to the always-exact m = 1).
  void step(std::uint64_t max_length);
  /// Recompute the k aggregated totals and the consensus flag (O(Ck)).
  void refresh_totals();

  pp::Count n_;
  pp::DegreeClassModel model_;
  std::vector<double> class_weights_;       // per-class degree
  std::vector<pp::Count> class_counts_;     // classes * k, class-major
  std::vector<pp::Count> class_undecided_;  // per class
  std::vector<pp::Count> totals_;           // k aggregated opinion counts
  pp::Count undecided_total_ = 0;
  core::ChunkController controller_;
  core::RoundEngine engine_;
  rng::Rng rng_;
  std::uint64_t interactions_ = 0;
  std::uint64_t chunks_ = 0;
  std::optional<int> winner_;
};

}  // namespace kusd::sim
