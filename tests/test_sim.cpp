// The sim layer: the Engine interface, the string-keyed Registry, the
// GraphSpec topology axis, and the property that the adapters preserve
// the dynamics of the simulators they wrap.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batched_usd.hpp"
#include "runner/run.hpp"
#include "core/sync_usd.hpp"
#include "core/usd.hpp"
#include "gossip/gossip_usd.hpp"
#include "pp/configuration.hpp"
#include "pp/graph.hpp"
#include "rng/rng.hpp"
#include "sim/engines.hpp"
#include "sim/graph_spec.hpp"
#include "sim/registry.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using pp::Configuration;
using sim::GraphSpec;

// ---- Registry ----

TEST(Registry, ContainsEveryBuiltinEngine) {
  const auto& registry = sim::Registry::instance();
  for (const char* name :
       {"every", "skip", "batched", "sync", "gossip", "graph"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    ASSERT_NE(registry.find(name), nullptr);
    EXPECT_FALSE(registry.find(name)->description.empty());
  }
  EXPECT_FALSE(registry.contains("warp-drive"));
  EXPECT_EQ(registry.find("warp-drive"), nullptr);
}

TEST(Registry, EveryRegisteredNameConstructsAndRuns) {
  // The registry round-trip of the acceptance criteria: every name in
  // names() constructs an engine from a small configuration, runs it to
  // consensus, and reports sane incremental state.
  const auto& registry = sim::Registry::instance();
  const auto x0 = Configuration::uniform(200, 2, 0);
  for (const auto& name : registry.names()) {
    const auto engine = registry.create(name, x0, 7);
    EXPECT_EQ(engine->n(), 200u) << name;
    EXPECT_EQ(engine->k(), 2) << name;
    EXPECT_EQ(engine->elapsed(), 0u) << name;
    ASSERT_TRUE(engine->run_to_consensus(engine->default_budget())) << name;
    EXPECT_TRUE(engine->is_consensus()) << name;
    const int winner = engine->consensus_opinion();
    ASSERT_GE(winner, 0) << name;
    ASSERT_LT(winner, 2) << name;
    EXPECT_EQ(engine->counts()[static_cast<std::size_t>(winner)], 200u)
        << name;
    EXPECT_EQ(engine->undecided(), 0u) << name;
    EXPECT_GT(engine->elapsed(), 0u) << name;
    EXPECT_GT(engine->parallel_time(), 0.0) << name;
  }
}

TEST(Registry, PublishedBudgetMatchesEveryConstructedEngine) {
  // EngineInfo::default_budget is the statically published copy of
  // Engine::default_budget() — drivers (the sweep's disconnected
  // short-circuit) report it without constructing an engine, so the two
  // must never drift.
  const auto& registry = sim::Registry::instance();
  const auto x0 = pp::Configuration::uniform(200, 2, 0);
  sim::EngineOptions options;
  options.graph = sim::GraphSpec{sim::GraphSpec::Kind::kCycle};
  for (const auto& name : registry.names()) {
    const sim::EngineInfo* info = registry.find(name);
    ASSERT_NE(info, nullptr) << name;
    if (!info->default_budget) continue;  // fallback path, nothing to pin
    const auto engine = registry.create(name, x0, 1, options);
    EXPECT_EQ(info->default_budget(x0.n(), x0.k()), engine->default_budget())
        << "engine '" << name
        << "' publishes a default budget that differs from the one it uses";
  }
}

TEST(Engine, TopologyConnectedReflectsTheRealizedTopology) {
  const auto& registry = sim::Registry::instance();
  const auto x0 = pp::Configuration::uniform(300, 2, 0);
  // Engines without a topology make no connectivity claim.
  EXPECT_EQ(registry.create("skip", x0, 1)->topology_connected(),
            std::nullopt);
  EXPECT_EQ(registry.create("batched", x0, 1)->topology_connected(),
            std::nullopt);
  sim::EngineOptions cycle;
  cycle.graph = sim::GraphSpec{sim::GraphSpec::Kind::kCycle};
  // G(300, 0.003) sits far below the ln n / n connectivity threshold:
  // sparse enough for isolated vertices (both the materialized and the
  // aggregated representation see the disconnection) but not empty.
  sim::EngineOptions sparse;
  sparse.graph = sim::GraphSpec{sim::GraphSpec::Kind::kErdosRenyi, 4, 0.003};
  EXPECT_EQ(registry.create("graph", x0, 1, cycle)->topology_connected(),
            std::optional<bool>(true));
  EXPECT_EQ(registry.create("graph", x0, 1, sparse)->topology_connected(),
            std::optional<bool>(false));
  EXPECT_EQ(
      registry.create("graph-batched", x0, 1, cycle)->topology_connected(),
      std::optional<bool>(true));
  EXPECT_EQ(
      registry.create("graph-batched", x0, 1, sparse)->topology_connected(),
      std::optional<bool>(false));
}

TEST(Registry, CreateUnknownEngineThrows) {
  const auto x0 = Configuration::uniform(100, 2, 0);
  EXPECT_THROW((void)sim::Registry::instance().create("warp-drive", x0, 1),
               util::CheckError);
}

TEST(Registry, RejectsBadRegistrations) {
  sim::Registry registry;  // fresh instance, builtins pre-registered
  EXPECT_THROW(registry.add("", {}), util::CheckError);
  EXPECT_THROW(registry.add("no-factory", {}), util::CheckError);
  sim::EngineInfo dup;
  dup.factory = [](const Configuration& x0, std::uint64_t seed,
                   const sim::EngineOptions&) {
    return sim::Registry::instance().create("skip", x0, seed);
  };
  EXPECT_THROW(registry.add("skip", dup), util::CheckError);  // duplicate
}

TEST(Registry, CustomEnginesAreCreatable) {
  // The extension contract of the layer: a registered name is immediately
  // constructible with no other changes.
  sim::Registry registry;
  sim::EngineInfo info;
  info.factory = [](const Configuration& x0, std::uint64_t seed,
                    const sim::EngineOptions&) {
    return sim::Registry::instance().create("every", x0, seed);
  };
  info.description = "alias of every, for the test";
  registry.add("every-again", info);
  ASSERT_TRUE(registry.contains("every-again"));
  const auto x0 = Configuration::uniform(100, 2, 0);
  const auto engine = registry.create("every-again", x0, 3);
  EXPECT_TRUE(engine->run_to_consensus(engine->default_budget()));
}

// ---- Adapters preserve the wrapped simulators' dynamics ----

TEST(EngineAdapters, SkipMatchesUsdSimulatorByteForByte) {
  const auto x0 = Configuration::uniform(1000, 3, 50);
  core::UsdSimulator direct(x0, rng::Rng(11),
                            core::UsdOptions{core::StepMode::kSkipUnproductive});
  ASSERT_TRUE(direct.run_to_consensus(100'000'000));
  const auto engine = sim::Registry::instance().create("skip", x0, 11);
  ASSERT_TRUE(engine->run_to_consensus(100'000'000));
  EXPECT_EQ(engine->elapsed(), direct.interactions());
  EXPECT_EQ(engine->consensus_opinion(), direct.consensus_opinion());
}

TEST(EngineAdapters, BatchedMatchesBatchedSimulatorByteForByte) {
  const auto x0 = Configuration::uniform(20000, 4, 0);
  core::BatchedUsdSimulator direct(x0, rng::Rng(13), core::BatchedOptions{});
  ASSERT_TRUE(direct.run_to_consensus(~std::uint64_t{0}));
  const auto engine = sim::Registry::instance().create("batched", x0, 13);
  ASSERT_TRUE(engine->run_to_consensus(~std::uint64_t{0}));
  EXPECT_EQ(engine->elapsed(), direct.interactions());
  EXPECT_EQ(engine->consensus_opinion(), direct.consensus_opinion());
}

TEST(EngineAdapters, SyncMatchesSyncUsdByteForByte) {
  const auto x0 = Configuration::uniform(800, 3, 0);
  core::SyncUsd direct(x0, rng::Rng(17));
  ASSERT_TRUE(direct.run_to_consensus(10'000));
  const auto engine = sim::Registry::instance().create("sync", x0, 17);
  ASSERT_TRUE(engine->run_to_consensus(10'000));
  EXPECT_EQ(engine->elapsed(), direct.super_rounds());
  EXPECT_DOUBLE_EQ(engine->parallel_time(),
                   static_cast<double>(direct.total_rounds()));
  EXPECT_EQ(engine->consensus_opinion(), direct.consensus_opinion());
}

TEST(EngineAdapters, GossipMatchesGossipUsdByteForByte) {
  const auto x0 = Configuration::uniform(800, 3, 40);
  gossip::GossipUsd direct(x0, rng::Rng(19));
  ASSERT_TRUE(direct.run_to_consensus(100'000));
  const auto engine = sim::Registry::instance().create("gossip", x0, 19);
  ASSERT_TRUE(engine->run_to_consensus(100'000));
  EXPECT_EQ(engine->elapsed(), direct.rounds());
  EXPECT_EQ(engine->consensus_opinion(), direct.consensus_opinion());
}

TEST(EngineAdapters, RunObservedVisitsIntervalBoundaries) {
  const auto x0 = Configuration::uniform(500, 2, 0);
  const auto engine = sim::Registry::instance().create("batched", x0, 23);
  std::vector<std::uint64_t> times;
  ASSERT_TRUE(engine->run_observed(
      ~std::uint64_t{0}, 250,
      [&times](std::uint64_t t, std::span<const pp::Count>, pp::Count) {
        times.push_back(t);
      }));
  ASSERT_GE(times.size(), 2u);
  EXPECT_EQ(times.front(), 0u);
  // The batched engine clamps chunks: every interior observation lands
  // exactly on a boundary.
  for (std::size_t i = 1; i + 1 < times.size(); ++i) {
    EXPECT_EQ(times[i] % 250, 0u) << i;
    EXPECT_GT(times[i], times[i - 1]);
  }
}

TEST(EngineAdapters, SyncRequiresDecidedStart) {
  const auto x0 = Configuration::uniform(100, 2, 10);
  EXPECT_THROW((void)sim::Registry::instance().create("sync", x0, 1),
               util::CheckError);
  EXPECT_TRUE(sim::Registry::instance().find("sync")->requires_decided_start);
}

// ---- GraphSpec ----

TEST(GraphSpec, NamesRoundTrip) {
  for (const char* name :
       {"complete", "cycle", "regular:4", "regular:7", "er:auto", "er:0.05"}) {
    const auto spec = sim::parse_graph_spec(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(sim::to_string(*spec), name);
    EXPECT_EQ(sim::parse_graph_spec(sim::to_string(*spec)), spec) << name;
  }
  // Shortest round-trip formatting keeps every significant digit.
  const GraphSpec gnarly{GraphSpec::Kind::kErdosRenyi, 4, 0.1234567891234567};
  const auto reparsed = sim::parse_graph_spec(sim::to_string(gnarly));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->edge_probability, gnarly.edge_probability);
}

TEST(GraphSpec, RejectsMalformedNames) {
  for (const char* name : {"", "torus", "regular:", "regular:0", "regular:x",
                           "er:", "er:0", "er:1.5", "er:x", "complete:3"}) {
    EXPECT_FALSE(sim::parse_graph_spec(name).has_value()) << name;
  }
}

TEST(GraphSpec, BuildGraphResolvesEveryKind) {
  rng::Rng rng(31);
  EXPECT_EQ(sim::build_graph(GraphSpec{}, 50, rng).num_edges(),
            50u * 49u / 2u);
  EXPECT_EQ(
      sim::build_graph(GraphSpec{GraphSpec::Kind::kCycle}, 50, rng).num_edges(),
      50u);
  const auto regular =
      sim::build_graph(GraphSpec{GraphSpec::Kind::kRegular, 4}, 50, rng);
  EXPECT_TRUE(regular.is_connected());
  const auto er = sim::build_graph(
      GraphSpec{GraphSpec::Kind::kErdosRenyi, 4, 0.0}, 400, rng);
  EXPECT_TRUE(er.is_connected());  // er:auto sits above the threshold
  EXPECT_THROW(
      (void)sim::build_graph(GraphSpec{GraphSpec::Kind::kRegular, 3}, 51, rng),
      util::CheckError);  // n * d odd
}

TEST(GraphSpec, AutoEdgeProbabilityTracksTheConnectivityThreshold) {
  EXPECT_GT(sim::auto_edge_probability(100), std::log(100.0) / 100.0);
  EXPECT_LE(sim::auto_edge_probability(3), 1.0);
  EXPECT_GT(sim::auto_edge_probability(1'000'000), 0.0);
}

TEST(InteractionGraph, ImplicitCompleteGraphIsCheap) {
  // K_n is held implicitly: big n must construct instantly and sample
  // uniform ordered distinct pairs without an edge list.
  const auto g = pp::InteractionGraph::complete(1'000'000);
  EXPECT_EQ(g.num_edges(), 1'000'000ull * 999'999ull / 2);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.edge(0), (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(g.edge(999'998), (std::pair<std::uint32_t, std::uint32_t>{0,
                                                                      999'999}));
  EXPECT_EQ(g.edge(999'999), (std::pair<std::uint32_t, std::uint32_t>{1, 2}));
  rng::Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    const auto [u, v] = g.sample_pair(rng);
    EXPECT_NE(u, v);
    EXPECT_LT(u, 1'000'000u);
    EXPECT_LT(v, 1'000'000u);
  }
}

// ---- The graph engine ----

TEST(GraphEngine, ReachesConsensusOnRestrictedTopologies) {
  const auto x0 = Configuration::uniform(64, 2, 0);
  for (const auto& spec :
       {GraphSpec{GraphSpec::Kind::kCycle},
        GraphSpec{GraphSpec::Kind::kRegular, 4},
        GraphSpec{GraphSpec::Kind::kErdosRenyi, 4, 0.0}}) {
    sim::EngineOptions options;
    options.graph = spec;
    const auto engine =
        sim::Registry::instance().create("graph", x0, 41, options);
    ASSERT_TRUE(engine->run_to_consensus(100'000'000)) << sim::to_string(spec);
    EXPECT_EQ(engine->counts()[static_cast<std::size_t>(
                  engine->consensus_opinion())],
              64u);
  }
}

TEST(GraphEngine, SharedTopologyMatchesOwnedConstruction) {
  // A sweep shares one topology across trials; an engine that builds its
  // own from the same spec and stream must produce the same trajectory.
  const auto x0 = Configuration::uniform(80, 2, 0);
  const std::uint64_t seed = 43;
  sim::EngineOptions owned;
  owned.graph = GraphSpec{GraphSpec::Kind::kRegular, 4};
  const auto a = sim::Registry::instance().create("graph", x0, seed, owned);

  rng::Rng topology_rng(rng::stream_seed(seed, sim::kTopologyStream));
  const auto topology = sim::build_graph(owned.graph, 80, topology_rng);
  sim::EngineOptions shared = owned;
  shared.shared_graph = &topology;
  const auto b = sim::Registry::instance().create("graph", x0, seed, shared);

  ASSERT_TRUE(a->run_to_consensus(100'000'000));
  ASSERT_TRUE(b->run_to_consensus(100'000'000));
  EXPECT_EQ(a->elapsed(), b->elapsed());
  EXPECT_EQ(a->consensus_opinion(), b->consensus_opinion());
}

TEST(GraphEngine, RejectsMismatchedSharedTopology) {
  const auto x0 = Configuration::uniform(80, 2, 0);
  const auto topology = pp::InteractionGraph::cycle(60);  // wrong size
  sim::EngineOptions options;
  options.shared_graph = &topology;
  EXPECT_THROW(
      (void)sim::Registry::instance().create("graph", x0, 1, options),
      util::CheckError);
}

TEST(GraphEngine, CompleteTopologyMatchesSkipEngineDistribution) {
  // On the complete topology the edge-restricted scheduler is the
  // unrestricted model conditioned on responder != initiator, whose
  // productive dynamics are identical (self-interactions are unproductive
  // and inflate interaction counts by only ~1/n). The consensus-time
  // (parallel time) distributions must therefore agree: KS at the same
  // threshold the batched-engine property tests use.
  const auto x0 = Configuration::uniform(150, 2, 0);
  const int trials = 200;
  std::vector<double> skip_times, graph_times;
  skip_times.reserve(trials);
  graph_times.reserve(trials);
  for (int t = 0; t < trials; ++t) {
    const auto skip_engine = sim::Registry::instance().create(
        "skip", x0, rng::stream_seed(5100, static_cast<std::uint64_t>(t)));
    ASSERT_TRUE(skip_engine->run_to_consensus(100'000'000));
    skip_times.push_back(skip_engine->parallel_time());
    const auto graph_engine = sim::Registry::instance().create(
        "graph", x0, rng::stream_seed(5101, static_cast<std::uint64_t>(t)));
    ASSERT_TRUE(graph_engine->run_to_consensus(100'000'000));
    graph_times.push_back(graph_engine->parallel_time());
  }
  EXPECT_LT(stats::ks_statistic(skip_times, graph_times),
            stats::ks_threshold(skip_times.size(), graph_times.size(), 0.001));
}

// ---- run_usd through the registry ----

TEST(RunUsd, EngineNameSelectsTheEngine) {
  const auto x0 = Configuration::uniform(500, 2, 0);
  runner::RunOptions options;
  options.engine = "sync";
  options.track_phases = false;
  const auto result = runner::run_usd(x0, 3, options);
  ASSERT_TRUE(result.converged);
  // Native time for sync is super-rounds: polylog, nowhere near the
  // interaction counts of the asynchronous engines.
  EXPECT_LT(result.interactions, 1000u);
  runner::RunOptions unknown;
  unknown.engine = "warp-drive";
  EXPECT_THROW((void)runner::run_usd(x0, 3, unknown), util::CheckError);
}

TEST(RunUsd, GraphEngineRunsWithTopology) {
  const auto x0 = Configuration::uniform(80, 2, 0);
  runner::RunOptions options;
  options.engine = "graph";
  options.graph = GraphSpec{GraphSpec::Kind::kRegular, 4};
  const auto result = runner::run_usd(x0, 5, options);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(result.phases.complete());
  EXPECT_GT(result.parallel_time, 0.0);
}

TEST(RunUsd, DefaultEngineIsSkip) {
  const auto x0 = Configuration::uniform(400, 3, 0);
  runner::RunOptions defaults;
  defaults.track_phases = false;
  runner::RunOptions skip = defaults;
  skip.engine = "skip";
  const auto a = runner::run_usd(x0, 9, defaults);
  const auto b = runner::run_usd(x0, 9, skip);
  ASSERT_TRUE(a.converged);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.interactions, b.interactions);
}

}  // namespace
}  // namespace kusd
