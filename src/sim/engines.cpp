#include "sim/engines.hpp"

#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/batched_usd.hpp"
#include "core/budget.hpp"
#include "core/graph_scheduler.hpp"
#include "core/sync_usd.hpp"
#include "core/usd.hpp"
#include "gossip/gossip_usd.hpp"
#include "pp/graph.hpp"
#include "rng/rng.hpp"
#include "sim/batched_graph_engine.hpp"
#include "sim/graph_spec.hpp"
#include "util/check.hpp"

namespace kusd::sim {

namespace {

/// graph: the USD transition function under the edge-restricted scheduler.
/// One uniformly random (oriented) edge per interaction; on the complete
/// topology this is the unrestricted model conditioned on responder !=
/// initiator, whose productive dynamics are identical (self-interactions
/// are unproductive for the USD).
class GraphUsdEngine final : public Engine {
 public:
  GraphUsdEngine(const pp::Configuration& initial, std::uint64_t seed,
                 const EngineOptions& options)
      : n_(initial.n()), rng_(seed) {
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
    scheduler_.emplace(initial.k(), *graph_, std::move(states), rng_);

    for (int i = 0; i < initial.k(); ++i) {
      if (initial.opinion(i) == n_) winner_ = i;
    }
  }

  void advance(std::uint64_t budget) override {
    const std::uint64_t target =
        core::saturating_add(scheduler_->steps(), budget);
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
  bool is_consensus() const override { return winner_.has_value(); }
  int consensus_opinion() const override { return *winner_; }

 private:
  pp::Count n_;
  rng::Rng rng_;
  std::optional<pp::InteractionGraph> owned_graph_;
  const pp::InteractionGraph* graph_ = nullptr;
  std::optional<core::GraphScheduler> scheduler_;
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
    core::BatchedUsdSimulator engine(initial, rng::Rng(seed), options.batch);
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
                      return std::make_unique<core::UsdSimulator>(
                          initial, rng::Rng(seed),
                          core::UsdOptions{core::StepMode::kEveryInteraction});
                    },
                .description = "exact chain, one interaction per step",
                .default_budget = interaction_budget,
                .max_n = kMaxN32});
  registry.add("skip",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions&) {
                      return std::make_unique<core::UsdSimulator>(
                          initial, rng::Rng(seed),
                          core::UsdOptions{core::StepMode::kSkipUnproductive});
                    },
                .description =
                    "exact chain, geometric skips over unproductive runs",
                .default_budget = interaction_budget,
                .max_n = kMaxN32});
  registry.add("batched",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions& options) {
                      return std::make_unique<core::BatchedUsdSimulator>(
                          initial, rng::Rng(seed), options.batch);
                    },
                .description =
                    "chunked tau-leap, O(k) per Theta(n) interactions",
                .default_budget = interaction_budget,
                .uses_chunk_options = true});
  registry.add("batched-lockstep",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions& options) {
                      return std::make_unique<core::BatchedUsdSimulator>(
                          initial, rng::Rng(seed), options.batch);
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
                      return std::make_unique<core::SyncUsd>(initial,
                                                             rng::Rng(seed));
                    },
                .description =
                    "synchronized round model (exact, <= k draws per round)",
                .default_budget = [](pp::Count n,
                                     int) { return core::sync_round_cap(n); },
                .requires_decided_start = true});
  registry.add("gossip",
               {.factory =
                    [](const pp::Configuration& initial, std::uint64_t seed,
                       const EngineOptions&) {
                      return std::make_unique<gossip::GossipUsd>(
                          initial, rng::Rng(seed));
                    },
                .description =
                    "gossip/PULL round model (exact, <= 2k draws per round)",
                .default_budget = [](pp::Count n, int k) {
                  return core::gossip_round_cap(n, k);
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
