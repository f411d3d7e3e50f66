#include "sim/engines.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/batched_usd.hpp"
#include "core/budget.hpp"
#include "core/sync_usd.hpp"
#include "core/usd.hpp"
#include "gossip/gossip_usd.hpp"
#include "pp/graph.hpp"
#include "pp/graph_scheduler.hpp"
#include "rng/rng.hpp"
#include "sim/batched_graph_engine.hpp"
#include "sim/graph_spec.hpp"
#include "util/check.hpp"

namespace kusd::sim {

std::uint64_t sync_round_cap(pp::Count n) {
  const double lg = std::log2(static_cast<double>(n)) + 1.0;
  return static_cast<std::uint64_t>(64.0 * lg * lg) + 256;
}

std::uint64_t gossip_round_cap(pp::Count n, int k) {
  const double lg = std::log2(static_cast<double>(n)) + 1.0;
  return static_cast<std::uint64_t>(64.0 * static_cast<double>(k) * lg) + 256;
}

namespace {

/// every / skip: UsdSimulator stepped one (productive) interaction at a
/// time. The skip mode's geometric jumps may overshoot an advance target
/// by part of one jump, exactly as UsdSimulator's own run loop does.
class UsdEngine final : public Engine {
 public:
  UsdEngine(const pp::Configuration& initial, std::uint64_t seed,
            core::StepMode mode)
      : sim_(initial, rng::Rng(seed), core::UsdOptions{mode}) {}

  void advance(std::uint64_t budget) override {
    const std::uint64_t target = saturating_add(sim_.interactions(), budget);
    while (!sim_.is_consensus() && sim_.interactions() < target) sim_.step();
  }
  std::span<const pp::Count> counts() const override {
    return sim_.opinions();
  }
  pp::Count undecided() const override { return sim_.undecided(); }
  pp::Count n() const override { return sim_.n(); }
  std::uint64_t elapsed() const override { return sim_.interactions(); }
  double parallel_time() const override {
    return static_cast<double>(sim_.interactions()) /
           static_cast<double>(sim_.n());
  }
  bool is_consensus() const override { return sim_.is_consensus(); }
  int consensus_opinion() const override { return sim_.consensus_opinion(); }
  std::uint64_t default_budget() const override {
    return core::default_interaction_cap(sim_.n(), sim_.k());
  }
  std::uint64_t default_observe_interval() const override {
    return std::max<std::uint64_t>(1, sim_.n() / 8);
  }

 private:
  core::UsdSimulator sim_;
};

/// batched: chunked tau-leap, clamped so advance() and observation
/// boundaries are exact.
class BatchedEngine final : public Engine {
 public:
  BatchedEngine(const pp::Configuration& initial, std::uint64_t seed,
                const core::ChunkOptions& options)
      : sim_(initial, rng::Rng(seed), options) {}

  void advance(std::uint64_t budget) override {
    const std::uint64_t target = saturating_add(sim_.interactions(), budget);
    while (!sim_.is_consensus() && sim_.interactions() < target) {
      sim_.step(target - sim_.interactions());
    }
  }
  std::span<const pp::Count> counts() const override {
    return sim_.opinions();
  }
  pp::Count undecided() const override { return sim_.undecided(); }
  pp::Count n() const override { return sim_.n(); }
  std::uint64_t elapsed() const override { return sim_.interactions(); }
  double parallel_time() const override {
    return static_cast<double>(sim_.interactions()) /
           static_cast<double>(sim_.n());
  }
  bool is_consensus() const override { return sim_.is_consensus(); }
  int consensus_opinion() const override { return sim_.consensus_opinion(); }
  std::uint64_t default_budget() const override {
    return core::default_interaction_cap(sim_.n(), sim_.k());
  }
  std::uint64_t default_observe_interval() const override {
    return std::max<std::uint64_t>(1, sim_.n() / 8);
  }

 private:
  core::BatchedUsdSimulator sim_;
};

/// sync: native time is super-rounds; parallel_time counts every
/// synchronous round including re-adoption sub-rounds (the comparable
/// metric the paper's polylog bounds are stated in).
class SyncEngine final : public Engine {
 public:
  SyncEngine(const pp::Configuration& initial, std::uint64_t seed)
      : sim_(initial, rng::Rng(seed)) {}

  void advance(std::uint64_t budget) override {
    const std::uint64_t target = saturating_add(sim_.super_rounds(), budget);
    while (!sim_.is_consensus() && sim_.super_rounds() < target) {
      sim_.super_round();
    }
  }
  std::span<const pp::Count> counts() const override {
    return sim_.opinions();
  }
  pp::Count undecided() const override { return 0; }  // fully decided between super-rounds
  pp::Count n() const override { return sim_.n(); }
  std::uint64_t elapsed() const override { return sim_.super_rounds(); }
  double parallel_time() const override {
    return static_cast<double>(sim_.total_rounds());
  }
  bool is_consensus() const override { return sim_.is_consensus(); }
  int consensus_opinion() const override { return sim_.consensus_opinion(); }
  std::uint64_t default_budget() const override {
    return sync_round_cap(sim_.n());
  }
  std::uint64_t default_observe_interval() const override { return 1; }

 private:
  core::SyncUsd sim_;
};

class GossipEngine final : public Engine {
 public:
  GossipEngine(const pp::Configuration& initial, std::uint64_t seed)
      : sim_(initial, rng::Rng(seed)) {}

  void advance(std::uint64_t budget) override {
    const std::uint64_t target = saturating_add(sim_.rounds(), budget);
    while (!sim_.is_consensus() && sim_.rounds() < target) sim_.round();
  }
  std::span<const pp::Count> counts() const override {
    return sim_.opinions();
  }
  pp::Count undecided() const override { return sim_.undecided(); }
  pp::Count n() const override { return sim_.n(); }
  std::uint64_t elapsed() const override { return sim_.rounds(); }
  double parallel_time() const override {
    return static_cast<double>(sim_.rounds());
  }
  bool is_consensus() const override { return sim_.is_consensus(); }
  int consensus_opinion() const override { return sim_.consensus_opinion(); }
  std::uint64_t default_budget() const override {
    return gossip_round_cap(sim_.n(), sim_.k());
  }
  std::uint64_t default_observe_interval() const override { return 1; }

 private:
  gossip::GossipUsd sim_;
};

/// graph: the USD transition function under the edge-restricted scheduler.
/// One uniformly random (oriented) edge per interaction; on the complete
/// topology this is the unrestricted model conditioned on responder !=
/// initiator, whose productive dynamics are identical (self-interactions
/// are unproductive for the USD).
class GraphUsdEngine final : public Engine {
 public:
  GraphUsdEngine(const pp::Configuration& initial, std::uint64_t seed,
                 const EngineOptions& options)
      : protocol_(initial.k()), n_(initial.n()), rng_(seed) {
    KUSD_CHECK_MSG(n_ <= std::numeric_limits<std::uint32_t>::max(),
                   "graph engine caps n below 2^32 (32-bit vertex ids)");
    KUSD_CHECK_MSG(initial.decided() >= 1,
                   "an all-undecided population never converges");
    if (options.shared_graph != nullptr) {
      KUSD_CHECK_MSG(options.shared_graph->num_vertices() == n_,
                     "shared topology has the wrong number of vertices");
      graph_ = options.shared_graph;
    } else {
      // Topology construction gets its own stream so the trial stream is
      // untouched: the same seed drives the same dynamics on a shared or
      // an owned copy of the same topology.
      rng::Rng topology_rng(rng::stream_seed(seed, kTopologyStream));
      owned_graph_.emplace(build_graph(options.graph, n_, topology_rng));
      graph_ = &*owned_graph_;
    }

    // Uniformly random embedding: the configuration's counts are laid out
    // in blocks and shuffled, so restricted topologies start from a random
    // labeling rather than adversarial contiguous arcs.
    std::vector<int> states;
    states.reserve(static_cast<std::size_t>(n_));
    for (int i = 0; i < initial.k(); ++i) {
      states.insert(states.end(),
                    static_cast<std::size_t>(initial.opinion(i)), i);
    }
    states.insert(states.end(),
                  static_cast<std::size_t>(initial.undecided()),
                  initial.k());
    rng_.shuffle(std::span<int>(states));
    scheduler_.emplace(protocol_, *graph_, std::move(states), rng_);

    for (int i = 0; i < initial.k(); ++i) {
      if (initial.opinion(i) == n_) winner_ = i;
    }
  }

  void advance(std::uint64_t budget) override {
    const std::uint64_t target =
        saturating_add(scheduler_->steps(), budget);
    const std::size_t k = counts().size();
    while (!winner_.has_value() && scheduler_->steps() < target) {
      // Consensus can only newly hold after an adoption empties the
      // undecided pool (a clash refills it), so the O(k) scan runs only
      // on 1 -> 0 transitions of the undecided count.
      const pp::Count undecided_before = undecided();
      scheduler_->step();
      if (undecided_before != 0 && undecided() == 0) {
        const auto c = counts();
        for (std::size_t i = 0; i < k; ++i) {
          if (c[i] == n_) winner_ = static_cast<int>(i);
        }
      }
    }
  }
  std::span<const pp::Count> counts() const override {
    const auto all = scheduler_->counts();
    return all.first(all.size() - 1);
  }
  pp::Count undecided() const override {
    const auto all = scheduler_->counts();
    return all[all.size() - 1];
  }
  pp::Count n() const override { return n_; }
  std::uint64_t elapsed() const override { return scheduler_->steps(); }
  double parallel_time() const override {
    return static_cast<double>(scheduler_->steps()) /
           static_cast<double>(n_);
  }
  bool is_consensus() const override { return winner_.has_value(); }
  int consensus_opinion() const override { return *winner_; }
  std::uint64_t default_budget() const override {
    return core::default_interaction_cap(n_, k());
  }
  std::uint64_t default_observe_interval() const override {
    return std::max<std::uint64_t>(1, n_ / 8);
  }
  std::optional<bool> topology_connected() const override {
    return graph_->is_connected();
  }

 private:
  core::UsdProtocol protocol_;
  pp::Count n_;
  rng::Rng rng_;
  std::optional<pp::InteractionGraph> owned_graph_;
  const pp::InteractionGraph* graph_ = nullptr;
  std::optional<pp::GraphScheduler> scheduler_;
  std::optional<int> winner_;
};

constexpr pp::Count kMaxN32 = (std::uint64_t{1} << 32) - 1;

/// batched-lockstep's EngineInfo::lockstep: one `batched` engine per seed,
/// results in seed order, so trial t is the batched run with seeds[t].
std::vector<LockstepTrialResult> run_batched_trials(
    const pp::Configuration& initial, std::span<const std::uint64_t> seeds,
    const EngineOptions& options, std::uint64_t budget) {
  KUSD_CHECK_MSG(!seeds.empty(), "lockstep engine needs at least one trial");
  std::vector<LockstepTrialResult> results;
  results.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    BatchedEngine engine(initial, seed, options.batch);
    const bool converged = engine.run_to_consensus(budget);
    results.push_back({.parallel_time = engine.parallel_time(),
                       .converged = converged,
                       .winner = converged ? engine.consensus_opinion() : -1});
  }
  return results;
}

}  // namespace

void register_builtin_engines(Registry& registry) {
  // Every engine publishes its default budget (EngineInfo::default_budget)
  // so drivers can report a cap without constructing one; the published
  // value must match what Engine::default_budget() would return (pinned by
  // tests/test_sim.cpp). The asynchronous engines share the interaction
  // cap.
  const auto interaction_budget = [](pp::Count n, int k) {
    return core::default_interaction_cap(n, k);
  };
  registry.add("every",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions&) {
                      return std::make_unique<UsdEngine>(
                          initial, seed, core::StepMode::kEveryInteraction);
                    },
                .description = "exact chain, one interaction per step",
                .default_budget = interaction_budget,
                .max_n = kMaxN32});
  registry.add("skip",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions&) {
                      return std::make_unique<UsdEngine>(
                          initial, seed, core::StepMode::kSkipUnproductive);
                    },
                .description =
                    "exact chain, geometric skips over unproductive runs",
                .default_budget = interaction_budget,
                .max_n = kMaxN32});
  registry.add("batched",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions& options) {
                      return std::make_unique<BatchedEngine>(initial, seed,
                                                             options.batch);
                    },
                .description =
                    "chunked tau-leap, O(k) per Theta(n) interactions",
                .default_budget = interaction_budget,
                .uses_chunk_options = true});
  registry.add("batched-lockstep",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions& options) {
                      return std::make_unique<BatchedEngine>(initial, seed,
                                                             options.batch);
                    },
                .description = "alias of batched, kept for kusdbench's "
                               "trace (ROADMAP item 2)",
                .default_budget = interaction_budget,
                .uses_chunk_options = true,
                .lockstep = run_batched_trials});
  registry.add("sync",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions&) {
                      return std::make_unique<SyncEngine>(initial, seed);
                    },
                .description =
                    "synchronized round model (exact, <= k draws per round)",
                .default_budget = [](pp::Count n,
                                     int) { return sync_round_cap(n); },
                .requires_decided_start = true});
  registry.add("gossip",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions&) {
                      return std::make_unique<GossipEngine>(initial, seed);
                    },
                .description =
                    "gossip/PULL round model (exact, <= 2k draws per round)",
                .default_budget = [](pp::Count n, int k) {
                  return gossip_round_cap(n, k);
                }});
  registry.add("graph",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions& options) {
                      return std::make_unique<GraphUsdEngine>(initial, seed,
                                                              options);
                    },
                .description =
                    "edge-restricted scheduler over a GraphSpec topology",
                .default_budget = interaction_budget,
                .max_n = kMaxN32,
                .uses_graph_axis = true});
  registry.add(
      "graph-batched",
      {.factory =
           [](const pp::Configuration& initial, std::uint64_t seed,
              const EngineOptions& options) {
             return std::make_unique<BatchedGraphEngine>(initial, seed,
                                                         options);
           },
       .description =
           "degree-aggregated tau-leap over a GraphSpec topology (annealed)",
       .default_budget = interaction_budget,
       .uses_graph_axis = true,
       .uses_chunk_options = true,
       .aggregated_topology = true});
}

}  // namespace kusd::sim
