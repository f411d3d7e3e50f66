// The degree-aggregated graph engine ("graph-batched") and its substrate:
// pp::DegreeClassModel extraction, the class-structured tau-leap in
// core::RoundEngine, the halve-on-overshoot m = 1 boundary, and KS
// agreement with the per-interaction "graph" engine on the topologies
// where the annealed model is exact (complete) or mean-field-accurate
// (random regular).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/chunk_controller.hpp"
#include "core/round_engine.hpp"
#include "runner/run.hpp"
#include "pp/configuration.hpp"
#include "pp/degree_classes.hpp"
#include "pp/graph.hpp"
#include "rng/rng.hpp"
#include "sim/batched_graph_engine.hpp"
#include "sim/graph_spec.hpp"
#include "sim/registry.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using pp::Configuration;
using pp::DegreeClass;
using pp::DegreeClassModel;
using sim::GraphSpec;

// ---- DegreeClassModel ----

TEST(DegreeClasses, RegularFamiliesCollapseToOneClass) {
  const auto model = DegreeClassModel::regular(1000, 8.0);
  ASSERT_EQ(model.num_classes(), 1u);
  EXPECT_EQ(model.classes()[0].size, 1000u);
  EXPECT_DOUBLE_EQ(model.classes()[0].degree, 8.0);
  EXPECT_EQ(model.num_vertices(), 1000u);
  EXPECT_DOUBLE_EQ(model.expected_edges(), 4000.0);
  EXPECT_FALSE(model.has_isolated_vertices());
}

TEST(DegreeClasses, FromGraphMeasuresTheDegreeHistogram) {
  const auto cycle = DegreeClassModel::from_graph(pp::InteractionGraph::cycle(50));
  ASSERT_EQ(cycle.num_classes(), 1u);
  EXPECT_DOUBLE_EQ(cycle.classes()[0].degree, 2.0);
  EXPECT_EQ(cycle.classes()[0].size, 50u);

  // K_n stays implicit: one class of degree n-1 without edge iteration.
  const auto complete =
      DegreeClassModel::from_graph(pp::InteractionGraph::complete(1 << 20));
  ASSERT_EQ(complete.num_classes(), 1u);
  EXPECT_DOUBLE_EQ(complete.classes()[0].degree,
                   static_cast<double>((1 << 20) - 1));

  rng::Rng rng(3);
  const auto er = DegreeClassModel::from_graph(
      pp::InteractionGraph::erdos_renyi(400, 0.05, rng));
  EXPECT_GT(er.num_classes(), 1u);
  EXPECT_EQ(er.num_vertices(), 400u);
}

TEST(DegreeClasses, BinomialRealizesClassSizesSummingToN) {
  rng::Rng rng(17);
  const auto model = DegreeClassModel::binomial(100000, 0.001, 48, rng);
  EXPECT_EQ(model.num_vertices(), 100000u);
  EXPECT_GE(model.num_classes(), 2u);
  EXPECT_LE(model.num_classes(), 48u);
  // Expected edges tracks p * n * (n-1) / 2 within a few percent.
  const double analytic = 0.001 * 100000.0 * 99999.0 / 2.0;
  EXPECT_NEAR(model.expected_edges() / analytic, 1.0, 0.05);
  // Mean degree 100: no isolated vertices at this density.
  EXPECT_FALSE(model.has_isolated_vertices());
}

TEST(DegreeClasses, SparseBinomialRealizesIsolatedVertices) {
  // Mean degree ~1: a constant fraction of vertices is isolated, which is
  // exactly what the sweep's connected=0 timeout detection keys on.
  rng::Rng rng(19);
  const auto model = DegreeClassModel::binomial(2000, 0.0005, 48, rng);
  EXPECT_EQ(model.num_vertices(), 2000u);
  EXPECT_TRUE(model.has_isolated_vertices());
}

TEST(DegreeClasses, GraphSpecExtractionMatchesTheFamilies) {
  rng::Rng rng(23);
  const auto complete = sim::degree_class_model(GraphSpec{}, 500, rng);
  ASSERT_EQ(complete.num_classes(), 1u);
  EXPECT_DOUBLE_EQ(complete.classes()[0].degree, 499.0);
  const auto cycle =
      sim::degree_class_model(GraphSpec{GraphSpec::Kind::kCycle}, 500, rng);
  EXPECT_DOUBLE_EQ(cycle.classes()[0].degree, 2.0);
  const auto regular = sim::degree_class_model(
      GraphSpec{GraphSpec::Kind::kRegular, 6}, 500, rng);
  EXPECT_DOUBLE_EQ(regular.classes()[0].degree, 6.0);
  EXPECT_THROW((void)sim::degree_class_model(
                   GraphSpec{GraphSpec::Kind::kRegular, 3}, 501, rng),
               util::CheckError);  // n * d odd, parity with build_graph

  // Aggregation is NOT capped at 2^32 vertices — that is its point.
  const auto huge = sim::degree_class_model(
      GraphSpec{GraphSpec::Kind::kRegular, 8}, std::uint64_t{1} << 40, rng);
  EXPECT_EQ(huge.num_vertices(), std::uint64_t{1} << 40);
}

// ---- Class-structured tau-leap ----

TEST(RoundEngineClassChunk, SingleUnitClassMatchesUnstructuredChunk) {
  // One class must reproduce the unstructured chain bit for bit: same
  // event layout, same rates, same multinomial consumption, same tau
  // bound. Weight 1 is the flat chain's own case; scaling every weight by
  // a power of two is exact, and the multinomial and the bound see only
  // ratios, so weights 4 and 8 (a regular:4 or regular:8 topology) replay
  // it too.
  for (const double weight : {1.0, 4.0, 8.0}) {
    SCOPED_TRACE(weight);
    std::vector<pp::Count> a_opinions = {400, 250, 100};
    pp::Count a_undecided = 250;
    std::vector<pp::Count> b_opinions = a_opinions;
    std::vector<pp::Count> b_undecided = {a_undecided};
    const std::vector<double> class_weight = {weight};
    const pp::Count n = 1000;

    core::RoundEngine plain(3);
    core::RoundEngine classed(3, 1);
    core::ChunkOptions adaptive;
    adaptive.policy = core::ChunkPolicy::kAdaptive;
    core::ChunkController plain_controller(adaptive, n);
    core::ChunkController classed_controller(adaptive, n);
    rng::Rng rng_a(12345), rng_b(12345);
    for (int step = 0; step < 50; ++step) {
      ASSERT_EQ(plain_controller.propose(a_opinions, a_undecided),
                classed_controller.propose_classes(b_opinions, b_undecided,
                                                   class_weight))
          << step;
      const bool ok_a = plain.try_async_chunk(a_opinions, a_undecided, n,
                                              n / 10, rng_a);
      const bool ok_b = classed.try_async_class_chunk(
          b_opinions, b_undecided, class_weight, n / 10, rng_b);
      ASSERT_EQ(ok_a, ok_b) << step;
      ASSERT_EQ(a_opinions, b_opinions) << step;
      ASSERT_EQ(a_undecided, b_undecided[0]) << step;
    }
    EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());  // same stream position
  }
}

TEST(RoundEngineClassChunk, RejectsOvershootWithoutMutation) {
  // Two lone decided agents, a huge frozen-rate chunk: the draw must
  // overshoot a count and be rejected with the state untouched.
  core::RoundEngine engine(2, 1);
  std::vector<pp::Count> opinions = {1, 1};
  std::vector<pp::Count> undecided = {0};
  const std::vector<double> weight = {1.0};
  rng::Rng rng(7);
  ASSERT_FALSE(
      engine.try_async_class_chunk(opinions, undecided, weight, 1000, rng));
  EXPECT_EQ(opinions, (std::vector<pp::Count>{1, 1}));
  EXPECT_EQ(undecided[0], 0u);
}

TEST(RoundEngineClassChunk, SingleInteractionAlwaysSucceeds) {
  // m == 1 is the exact per-interaction limit the halve-on-overshoot
  // fallback bottoms out at: it must succeed in every reachable state,
  // including the near-consensus boundary.
  core::RoundEngine engine(2, 2);
  rng::Rng rng(11);
  const std::vector<double> weights = {2.0, 8.0};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<pp::Count> opinions = {5, 0, 1, 0};  // class-major, 2x2
    std::vector<pp::Count> undecided = {1, 1};
    ASSERT_TRUE(
        engine.try_async_class_chunk(opinions, undecided, weights, 1, rng));
    pp::Count total = undecided[0] + undecided[1];
    for (const auto c : opinions) total += c;
    EXPECT_EQ(total, 8u);  // population conserved
  }
}

TEST(RoundEngineClassChunk, ZeroWeightClassesAreFrozen) {
  // Weight-0 (isolated) vertices never interact: their counts must never
  // change, in either direction.
  core::RoundEngine engine(2, 2);
  rng::Rng rng(13);
  const std::vector<double> weights = {4.0, 0.0};
  std::vector<pp::Count> opinions = {50, 40, 3, 2};
  std::vector<pp::Count> undecided = {10, 1};
  for (int step = 0; step < 100; ++step) {
    (void)engine.try_async_class_chunk(opinions, undecided, weights, 20, rng);
    EXPECT_EQ(opinions[2], 3u);
    EXPECT_EQ(opinions[3], 2u);
    EXPECT_EQ(undecided[1], 1u);
  }
}

// ---- The graph-batched engine ----

TEST(BatchedGraphEngine, RegistryMetadata) {
  const auto* info = sim::Registry::instance().find("graph-batched");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->uses_graph_axis);
  EXPECT_TRUE(info->uses_chunk_options);
  EXPECT_TRUE(info->aggregated_topology);
  EXPECT_EQ(info->max_n, 0u);  // not capped at 2^32 — the engine's point
  EXPECT_FALSE(info->description.empty());
  // The materialized graph engine stays per-edge exact and capped.
  EXPECT_FALSE(sim::Registry::instance().find("graph")->aggregated_topology);
}

TEST(BatchedGraphEngine, InitialCountsMatchTheConfigurationExactly) {
  // The multinomial class embedding must preserve every state total: the
  // reported counts at t = 0 are the configuration, not an approximation.
  const auto x0 = Configuration({700, 200, 50}, 50);
  sim::EngineOptions options;
  options.graph = GraphSpec{GraphSpec::Kind::kErdosRenyi, 4, 0.02};
  const auto engine =
      sim::Registry::instance().create("graph-batched", x0, 29, options);
  ASSERT_EQ(engine->k(), 3);
  EXPECT_EQ(engine->counts()[0], 700u);
  EXPECT_EQ(engine->counts()[1], 200u);
  EXPECT_EQ(engine->counts()[2], 50u);
  EXPECT_EQ(engine->undecided(), 50u);
  EXPECT_EQ(engine->elapsed(), 0u);
}

TEST(BatchedGraphEngine, ReachesConsensusOnEveryFamily) {
  const auto x0 = Configuration::uniform(4096, 2, 0);
  for (const auto& spec :
       {GraphSpec{}, GraphSpec{GraphSpec::Kind::kCycle},
        GraphSpec{GraphSpec::Kind::kRegular, 8},
        GraphSpec{GraphSpec::Kind::kErdosRenyi, 4, 0.0}}) {
    sim::EngineOptions options;
    options.graph = spec;
    const auto engine =
        sim::Registry::instance().create("graph-batched", x0, 31, options);
    ASSERT_TRUE(engine->run_to_consensus(engine->default_budget()))
        << sim::to_string(spec);
    EXPECT_EQ(engine->counts()[static_cast<std::size_t>(
                  engine->consensus_opinion())],
              4096u);
    EXPECT_EQ(engine->undecided(), 0u);
  }
}

TEST(BatchedGraphEngine, SharedDegreeModelMatchesOwnedConstruction) {
  // A sweep shares one degree model across trials; an engine aggregating
  // its own from the same spec and stream must replay the same
  // trajectory, exactly like the materialized engine's shared_graph.
  const auto x0 = Configuration::uniform(5000, 3, 0);
  const std::uint64_t seed = 37;
  sim::EngineOptions owned;
  owned.graph = GraphSpec{GraphSpec::Kind::kErdosRenyi, 4, 0.01};
  const auto a =
      sim::Registry::instance().create("graph-batched", x0, seed, owned);

  rng::Rng topology_rng(rng::stream_seed(seed, sim::kTopologyStream));
  const auto model = sim::degree_class_model(owned.graph, 5000, topology_rng);
  sim::EngineOptions shared = owned;
  shared.shared_degrees = &model;
  const auto b =
      sim::Registry::instance().create("graph-batched", x0, seed, shared);

  ASSERT_TRUE(a->run_to_consensus(a->default_budget()));
  ASSERT_TRUE(b->run_to_consensus(b->default_budget()));
  EXPECT_EQ(a->elapsed(), b->elapsed());
  EXPECT_EQ(a->consensus_opinion(), b->consensus_opinion());
}

TEST(BatchedGraphEngine, SingleClassTopologyReplaysBatched) {
  // regular:8 is one class of weight 8, and a power-of-two weight is
  // exact, so graph-batched must replay the flat batched engine trial for
  // trial at the same seed: the same counts at every advance boundary and
  // the same consensus time and winner.
  const auto x0 = Configuration::uniform(1000000, 8, 0);
  for (const auto policy :
       {core::ChunkPolicy::kFixed, core::ChunkPolicy::kAdaptive}) {
    SCOPED_TRACE(core::to_string(policy));
    sim::EngineOptions options;
    options.batch.policy = policy;
    options.graph = GraphSpec{GraphSpec::Kind::kRegular, 8};
    const auto flat = sim::Registry::instance().create("batched", x0, 5,
                                                       options);
    const auto graph = sim::Registry::instance().create("graph-batched", x0,
                                                        5, options);
    // Consensus takes about 100 n interactions here; 4000 quarter-n
    // advances is ten times that.
    for (int i = 0; i < 4000 && !flat->is_consensus(); ++i) {
      flat->advance(x0.n() / 4);
      graph->advance(x0.n() / 4);
      ASSERT_EQ(flat->elapsed(), graph->elapsed());
      ASSERT_TRUE(std::equal(flat->counts().begin(), flat->counts().end(),
                             graph->counts().begin(), graph->counts().end()))
          << "at t=" << flat->elapsed();
      ASSERT_EQ(flat->undecided(), graph->undecided());
      ASSERT_EQ(flat->is_consensus(), graph->is_consensus());
    }
    ASSERT_TRUE(flat->is_consensus());
    EXPECT_EQ(flat->consensus_opinion(), graph->consensus_opinion());
  }
}

TEST(BatchedGraphEngine, RejectsMismatchedSharedModel) {
  const auto x0 = Configuration::uniform(80, 2, 0);
  const auto model = DegreeClassModel::regular(60, 4.0);  // wrong size
  sim::EngineOptions options;
  options.shared_degrees = &model;
  EXPECT_THROW((void)sim::Registry::instance().create("graph-batched", x0, 1,
                                                      options),
               util::CheckError);
}

TEST(BatchedGraphEngine, OvershootHalvesDownToExactSingleInteractions) {
  // Near-consensus boundary: one undecided agent, everything else decided
  // on opinion 0. A 50%-of-n fixed chunk must overshoot (at most one
  // adoption can happen), halve down to the always-exact m = 1, and
  // still converge to the right winner.
  const auto x0 = Configuration({199, 0}, 1);
  sim::EngineOptions options;
  options.graph = GraphSpec{GraphSpec::Kind::kRegular, 4};
  options.batch.chunk_fraction = 0.5;
  const auto engine =
      sim::Registry::instance().create("graph-batched", x0, 41, options);
  ASSERT_TRUE(engine->run_to_consensus(engine->default_budget()));
  EXPECT_EQ(engine->consensus_opinion(), 0);
  EXPECT_EQ(engine->counts()[0], 200u);
  const auto* direct = dynamic_cast<sim::BatchedGraphEngine*>(engine.get());
  ASSERT_NE(direct, nullptr);
  EXPECT_GE(direct->chunks(), 1u);
  EXPECT_EQ(direct->degree_model().num_classes(), 1u);
}

TEST(BatchedGraphEngine, CompleteMatchesGraphEngineDistribution) {
  // On the complete topology the annealed degree-weighted scheduler IS
  // the edge-restricted scheduler's law (self-interactions excepted, and
  // those are unproductive): the consensus-time distributions must agree
  // at the same KS threshold the other scheduler-equivalence tests use.
  const auto x0 = Configuration::uniform(150, 2, 0);
  const int trials = 200;
  std::vector<double> graph_times, aggregated_times;
  graph_times.reserve(trials);
  aggregated_times.reserve(trials);
  for (int t = 0; t < trials; ++t) {
    const auto graph_engine = sim::Registry::instance().create(
        "graph", x0, rng::stream_seed(6100, static_cast<std::uint64_t>(t)));
    ASSERT_TRUE(graph_engine->run_to_consensus(100'000'000));
    graph_times.push_back(graph_engine->parallel_time());
    const auto aggregated = sim::Registry::instance().create(
        "graph-batched", x0,
        rng::stream_seed(6101, static_cast<std::uint64_t>(t)));
    ASSERT_TRUE(aggregated->run_to_consensus(100'000'000));
    aggregated_times.push_back(aggregated->parallel_time());
  }
  EXPECT_LT(stats::ks_statistic(graph_times, aggregated_times),
            stats::ks_threshold(graph_times.size(), aggregated_times.size(),
                                0.001));
}

TEST(BatchedGraphEngine, DenseRegularMatchesGraphEngineDistribution) {
  // The annealed mean field carries an O(1/d) bias against the quenched
  // per-interaction dynamics (local opinion clustering slows the real
  // chain; the mean field has none). By d = 64 the bias is below KS
  // detectability at property-test scale — the dense regime the
  // aggregated engine is for.
  const auto x0 = Configuration::uniform(256, 2, 0);
  const int trials = 150;
  sim::EngineOptions options;
  options.graph = GraphSpec{GraphSpec::Kind::kRegular, 64};
  std::vector<double> graph_times, aggregated_times;
  graph_times.reserve(trials);
  aggregated_times.reserve(trials);
  for (int t = 0; t < trials; ++t) {
    const auto graph_engine = sim::Registry::instance().create(
        "graph", x0, rng::stream_seed(6200, static_cast<std::uint64_t>(t)),
        options);
    ASSERT_TRUE(graph_engine->run_to_consensus(100'000'000));
    graph_times.push_back(graph_engine->parallel_time());
    const auto aggregated = sim::Registry::instance().create(
        "graph-batched", x0,
        rng::stream_seed(6201, static_cast<std::uint64_t>(t)), options);
    ASSERT_TRUE(aggregated->run_to_consensus(100'000'000));
    aggregated_times.push_back(aggregated->parallel_time());
  }
  EXPECT_LT(stats::ks_statistic(graph_times, aggregated_times),
            stats::ks_threshold(graph_times.size(), aggregated_times.size(),
                                0.001));
}

TEST(BatchedGraphEngine, SparseRegularBiasIsOptimisticAndBounded) {
  // At d = 8 the mean-field bias is real and documented: the annealed
  // chain reaches consensus *faster* than the quenched one (it has no
  // local clustering to grind through), by well under 2x at this scale.
  // This test pins the direction and magnitude of the approximation so a
  // regression in either the engine or the docs' claim is caught.
  const auto x0 = Configuration::uniform(256, 2, 0);
  const int trials = 60;
  sim::EngineOptions options;
  options.graph = GraphSpec{GraphSpec::Kind::kRegular, 8};
  stats::Samples graph_times, aggregated_times;
  for (int t = 0; t < trials; ++t) {
    const auto graph_engine = sim::Registry::instance().create(
        "graph", x0, rng::stream_seed(6300, static_cast<std::uint64_t>(t)),
        options);
    ASSERT_TRUE(graph_engine->run_to_consensus(100'000'000));
    graph_times.add(graph_engine->parallel_time());
    const auto aggregated = sim::Registry::instance().create(
        "graph-batched", x0,
        rng::stream_seed(6301, static_cast<std::uint64_t>(t)), options);
    ASSERT_TRUE(aggregated->run_to_consensus(100'000'000));
    aggregated_times.add(aggregated->parallel_time());
  }
  EXPECT_LT(aggregated_times.mean(), graph_times.mean());
  EXPECT_GT(aggregated_times.mean(), graph_times.mean() / 2.0);
}

TEST(BatchedGraphEngine, RunObservedVisitsIntervalBoundaries) {
  const auto x0 = Configuration::uniform(1000, 2, 0);
  sim::EngineOptions options;
  options.graph = GraphSpec{GraphSpec::Kind::kRegular, 4};
  const auto engine =
      sim::Registry::instance().create("graph-batched", x0, 43, options);
  std::vector<std::uint64_t> times;
  ASSERT_TRUE(engine->run_observed(
      ~std::uint64_t{0}, 500,
      [&times](std::uint64_t t, std::span<const pp::Count>, pp::Count) {
        times.push_back(t);
      }));
  ASSERT_GE(times.size(), 2u);
  EXPECT_EQ(times.front(), 0u);
  for (std::size_t i = 1; i + 1 < times.size(); ++i) {
    EXPECT_EQ(times[i] % 500, 0u) << i;  // chunk-clamped, boundary-exact
    EXPECT_GT(times[i], times[i - 1]);
  }
}

TEST(BatchedGraphEngine, RunUsdResolvesItThroughTheRegistry) {
  const auto x0 = Configuration::uniform(4096, 2, 0);
  runner::RunOptions options;
  options.engine = "graph-batched";
  options.graph = GraphSpec{GraphSpec::Kind::kRegular, 8};
  const auto result = runner::run_usd(x0, 47, options);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(result.phases.complete());
  EXPECT_GT(result.parallel_time, 0.0);
}

}  // namespace
}  // namespace kusd
