// The sweep subsystem: grid expansion, streaming aggregation, output
// schema, and reproducibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/budget.hpp"
#include "runner/run.hpp"
#include "runner/sweep.hpp"
#include "sim/registry.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using runner::BiasKind;
using runner::Sweep;
using runner::SweepCell;
using runner::SweepSpec;

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.ns = {300, 600};
  spec.ks = {2, 3};
  spec.engines = {"skip", "gossip"};
  spec.trials = 3;
  spec.master_seed = 42;
  spec.threads = 2;
  return spec;
}

/// Render header + streamed rows into one string (byte-identity witness).
std::string render(const Sweep& sweep) {
  std::string out;
  for (const auto& col : Sweep::csv_header()) out += col + ",";
  out += "\n";
  sweep.run([&out](const SweepCell& cell) {
    for (const auto& field : Sweep::csv_row(cell)) out += field + ",";
    out += "\n";
  });
  return out;
}

TEST(Sweep, GridIsCartesianInEngineMajorOrder) {
  const Sweep sweep(tiny_spec());
  const auto grid = sweep.grid();
  ASSERT_EQ(grid.size(), 8u);  // 2 engines x 2 ns x 2 ks x 1 bias
  EXPECT_EQ(grid[0].engine, "skip");
  EXPECT_EQ(grid[0].n, 300u);
  EXPECT_EQ(grid[0].k, 2);
  EXPECT_FALSE(grid[0].graph.has_value());  // no topology axis for skip
  EXPECT_EQ(grid[3].k, 3);
  EXPECT_EQ(grid[4].engine, "gossip");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, i);
  }
}

TEST(Sweep, NoBiasCollapsesBiasAxis) {
  auto spec = tiny_spec();
  spec.bias_values = {1.5, 2.0, 3.0};  // ignored under BiasKind::kNone
  EXPECT_EQ(Sweep(spec).grid().size(), 8u);
  spec.bias_kind = BiasKind::kMultiplicative;
  EXPECT_EQ(Sweep(spec).grid().size(), 24u);
}

TEST(Sweep, RunStreamsEveryCellWithMatchingSchema) {
  const Sweep sweep(tiny_spec());
  const auto header = Sweep::csv_header();
  std::vector<SweepCell> cells;
  sweep.run([&cells, &header](const SweepCell& cell) {
    EXPECT_EQ(Sweep::csv_row(cell).size(), header.size());
    cells.push_back(cell);
  });
  ASSERT_EQ(cells.size(), 8u);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.trials, 3);
    EXPECT_EQ(cell.parallel_time.count(), 3u);
    EXPECT_DOUBLE_EQ(cell.converged_rate, 1.0);  // tiny configs converge
    EXPECT_GT(cell.parallel_time.mean(), 0.0);
  }
}

TEST(Sweep, ReproducibleAcrossRunsAndThreadCounts) {
  auto spec = tiny_spec();
  spec.threads = 1;
  std::vector<double> first;
  Sweep(spec).run([&first](const SweepCell& cell) {
    for (double v : cell.parallel_time.values()) first.push_back(v);
  });
  spec.threads = 8;
  std::vector<double> second;
  Sweep(spec).run([&second](const SweepCell& cell) {
    for (double v : cell.parallel_time.values()) second.push_back(v);
  });
  EXPECT_EQ(first, second);  // bit-identical
}

TEST(Sweep, MultiplicativeBiasAxisDrivesPluralityWins) {
  SweepSpec spec;
  spec.ns = {2000};
  spec.ks = {4};
  spec.engines = {"skip"};
  spec.bias_kind = BiasKind::kMultiplicative;
  spec.bias_values = {8.0};  // overwhelming plurality
  spec.trials = 10;
  std::vector<SweepCell> cells;
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_DOUBLE_EQ(cells[0].plurality_win_rate, 1.0);
  EXPECT_DOUBLE_EQ(cells[0].point.bias, 8.0);
}

TEST(Sweep, SynchronizedAndBatchedEnginesRun) {
  SweepSpec spec;
  spec.ns = {500};
  spec.ks = {2};
  spec.engines = {"sync", "batched", "every"};
  spec.trials = 2;
  std::vector<SweepCell> cells;
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 3u);
  for (const auto& cell : cells) EXPECT_DOUBLE_EQ(cell.converged_rate, 1.0);
}

TEST(Sweep, JsonLineQuotesOnlyNameFields) {
  const Sweep sweep(tiny_spec());
  const auto cell = sweep.run_point(sweep.grid()[0]);
  const std::string json = Sweep::json_line(cell);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"engine\":\"skip\""), std::string::npos);
  EXPECT_NE(json.find("\"graph\":\"-\""), std::string::npos);
  EXPECT_NE(json.find("\"bias_kind\":\"none\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":300"), std::string::npos);
  EXPECT_EQ(json.find("\"n\":\"300\""), std::string::npos);
}

TEST(Sweep, JsonLineEscapesNameFields) {
  // A registry engine may be named anything; its JSONL must stay valid
  // JSON, escaped exactly as the journal escapes it.
  const Sweep sweep(tiny_spec());
  SweepCell cell = sweep.run_point(sweep.grid()[0]);
  cell.point.engine = "a\"b\\c";
  const std::string json = Sweep::json_line(cell);
  EXPECT_EQ(json.rfind("{\"engine\":\"a\\\"b\\\\c\",\"graph\":\"-\",", 0), 0u)
      << json;
  auto row = Sweep::csv_row(cell);
  EXPECT_EQ(Sweep::json_line(row), json);
  row[10] = "tab\there";
  EXPECT_NE(Sweep::json_line(row).find("\"status\":\"tab\\u0009here\""),
            std::string::npos);
}

TEST(Sweep, OutputIsByteIdenticalAcrossThreadsStripesAndShuffle) {
  // The acceptance bar for the work-stealing task graph: the streamed
  // CSV (and so the JSONL) is a pure function of (spec, master_seed) —
  // identical bytes at any thread count, any stripe width (unset: the
  // derived grain), with and without shuffled execution order.
  auto spec = tiny_spec();
  spec.threads = 1;
  spec.stripe_width = 1;
  const std::string reference = render(Sweep(spec));
  const std::vector<std::optional<std::size_t>> widths = {
      std::nullopt, 1, 2, 3, 8, 64};
  for (const std::size_t threads : {1u, 3u, 8u}) {
    for (const auto& width : widths) {
      const std::string label =
          width ? "stripe width " + std::to_string(*width) : "derived grain";
      spec.threads = threads;
      spec.stripe_width = width;
      spec.shuffle_points = false;
      EXPECT_EQ(render(Sweep(spec)), reference)
          << threads << " threads, " << label;
      spec.shuffle_points = true;
      EXPECT_EQ(render(Sweep(spec)), reference)
          << threads << " threads, " << label << ", shuffled";
    }
  }
}

TEST(Sweep, GridsOfManyPointsAreByteIdenticalAcrossSchedules) {
  // Points keep their state in blocks of 64 that live only while their
  // points are in flight: a 400-point grid crosses several blocks, so
  // allocation races at block starts and release behind the emitter run
  // here, and must not show in the bytes.
  SweepSpec spec;
  spec.engines = {"sync", "gossip"};
  spec.ns = {100};
  spec.ks = {2, 3};
  spec.bias_kind = BiasKind::kMultiplicative;
  spec.bias_values.clear();
  for (int i = 0; i < 100; ++i) spec.bias_values.push_back(1.5 + 0.01 * i);
  spec.trials = 2;
  spec.master_seed = 9;
  spec.threads = 1;
  spec.stripe_width = 1;
  const Sweep serial(spec);
  ASSERT_EQ(serial.grid().size(), 400u);
  const std::string reference = render(serial);
  for (const std::size_t threads : {4u, 8u}) {
    for (const bool shuffle : {false, true}) {
      spec.threads = threads;
      spec.shuffle_points = shuffle;
      EXPECT_EQ(render(Sweep(spec)), reference)
          << threads << " threads" << (shuffle ? ", shuffled" : "");
    }
  }
}

TEST(Sweep, GeometricStartAxisExpandsTheGrid) {
  auto spec = tiny_spec();
  spec.starts = {runner::StartProfile{},
                 runner::StartProfile{runner::StartProfile::Kind::kGeometric,
                                      0.5}};
  const Sweep sweep(spec);
  const auto grid = sweep.grid();
  ASSERT_EQ(grid.size(), 16u);  // 2 engines x 2 ns x 2 ks x 2 starts
  EXPECT_EQ(grid[0].start.kind, runner::StartProfile::Kind::kUniform);
  EXPECT_EQ(grid[1].start.kind, runner::StartProfile::Kind::kGeometric);
  EXPECT_DOUBLE_EQ(grid[1].start.ratio, 0.5);

  // Geometric points run and report their start profile in the schema.
  std::vector<SweepCell> cells;
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 16u);
  const auto row = Sweep::csv_row(cells[1]);
  EXPECT_EQ(row[6], "geometric:0.5");  // engine,graph,edges,connected,n,k,start
  const auto json = Sweep::json_line(cells[1]);
  EXPECT_NE(json.find("\"start\":\"geometric:0.5\""), std::string::npos);
}

TEST(Sweep, StartProfileNamesRoundTrip) {
  const auto uniform = runner::parse_start_profile("uniform");
  ASSERT_TRUE(uniform.has_value());
  EXPECT_EQ(uniform->kind, runner::StartProfile::Kind::kUniform);
  EXPECT_EQ(runner::to_string(*uniform), "uniform");
  const auto geometric = runner::parse_start_profile("geometric:0.25");
  ASSERT_TRUE(geometric.has_value());
  EXPECT_EQ(geometric->kind, runner::StartProfile::Kind::kGeometric);
  EXPECT_DOUBLE_EQ(geometric->ratio, 0.25);
  EXPECT_EQ(runner::parse_start_profile(runner::to_string(*geometric)),
            geometric);
  // Shortest round-trip formatting: the recorded spelling must parse back
  // to exactly the ratio that ran, even for awkward ratios.
  const runner::StartProfile gnarly{runner::StartProfile::Kind::kGeometric,
                                    0.1234567891234567};
  const auto reparsed = runner::parse_start_profile(runner::to_string(gnarly));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->ratio, gnarly.ratio);
  EXPECT_FALSE(runner::parse_start_profile("geometric:").has_value());
  EXPECT_FALSE(runner::parse_start_profile("geometric:0").has_value());
  EXPECT_FALSE(runner::parse_start_profile("geometric:1.5").has_value());
  EXPECT_FALSE(runner::parse_start_profile("triangular").has_value());
}

TEST(Sweep, BatchedChunkPolicyIsSweepable) {
  SweepSpec spec;
  spec.ns = {2000};
  spec.ks = {3};
  spec.engines = {"batched"};
  spec.trials = 3;
  spec.batch_policy = core::ChunkPolicy::kAdaptive;
  std::vector<SweepCell> cells;
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_DOUBLE_EQ(cells[0].converged_rate, 1.0);
}

TEST(Sweep, EveryRegisteredEngineIsSweepable) {
  // The engine axis is the registry: every registered name must expand
  // into grid points and run. (Engines with a start constraint get the
  // default fully decided start, which every built-in accepts.)
  SweepSpec spec;
  spec.ns = {200};
  spec.ks = {2};
  spec.engines = sim::Registry::instance().names();
  spec.trials = 2;
  std::vector<SweepCell> cells;
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), spec.engines.size());
  for (const auto& cell : cells) {
    EXPECT_DOUBLE_EQ(cell.converged_rate, 1.0) << cell.point.engine;
  }
}

TEST(Sweep, GraphAxisMultipliesOnlyTopologyEngines) {
  SweepSpec spec;
  spec.ns = {120};
  spec.ks = {2};
  spec.engines = {"skip", "graph"};
  spec.graphs = {sim::GraphSpec{},
                 sim::GraphSpec{sim::GraphSpec::Kind::kCycle}};
  spec.trials = 2;
  const Sweep sweep(spec);
  const auto grid = sweep.grid();
  // skip contributes 1 point, graph 2 (one per topology).
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_FALSE(grid[0].graph.has_value());
  ASSERT_TRUE(grid[1].graph.has_value());
  EXPECT_EQ(grid[1].graph->kind, sim::GraphSpec::Kind::kComplete);
  ASSERT_TRUE(grid[2].graph.has_value());
  EXPECT_EQ(grid[2].graph->kind, sim::GraphSpec::Kind::kCycle);

  std::vector<SweepCell> cells;
  sweep.run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(Sweep::csv_row(cells[0])[1], "-");
  EXPECT_EQ(Sweep::csv_row(cells[1])[1], "complete");
  EXPECT_EQ(Sweep::csv_row(cells[2])[1], "cycle");
  EXPECT_NE(Sweep::json_line(cells[2]).find("\"graph\":\"cycle\""),
            std::string::npos);
  // Complete-topology and unrestricted runs converge well within the
  // default budget; the cycle mixes slowly enough that only the schema
  // (not convergence) is asserted for it.
  EXPECT_DOUBLE_EQ(cells[0].converged_rate, 1.0);
  EXPECT_DOUBLE_EQ(cells[1].converged_rate, 1.0);
}

TEST(Sweep, GraphSweepOutputIsByteIdenticalAcrossThreadCounts) {
  // The acceptance bar for the --graph axis: topologies are constructed
  // once per point from a deterministic stream, so CSV/JSONL bytes match
  // across thread counts and parallelism modes — including the random
  // topologies (regular, ER), whose construction must not depend on
  // which worker builds them.
  SweepSpec spec;
  spec.ns = {120};
  spec.ks = {2, 3};
  spec.engines = {"graph", "graph-batched"};
  spec.graphs = {sim::GraphSpec{sim::GraphSpec::Kind::kCycle},
                 sim::GraphSpec{sim::GraphSpec::Kind::kRegular, 4},
                 sim::GraphSpec{sim::GraphSpec::Kind::kErdosRenyi, 4, 0.0}};
  spec.trials = 3;
  spec.master_seed = 7;
  spec.threads = 1;
  const std::string reference = render(Sweep(spec));
  for (const std::size_t threads : {2u, 8u}) {
    spec.threads = threads;
    spec.stripe_width = 1;
    EXPECT_EQ(render(Sweep(spec)), reference)
        << threads << " threads, stripe width 1";
    spec.stripe_width = 8;
    EXPECT_EQ(render(Sweep(spec)), reference)
        << threads << " threads, stripe width 8";
  }
}

TEST(Sweep, TopologySummaryColumnsAreEmittedOncePerPoint) {
  // graph_edges / connected: measured for materialized topologies,
  // analytic for aggregated ones, "-" for engines without a graph axis.
  SweepSpec spec;
  spec.ns = {120};
  spec.ks = {2};
  spec.engines = {"skip", "graph", "graph-batched"};
  spec.graphs = {sim::GraphSpec{sim::GraphSpec::Kind::kCycle}};
  spec.trials = 2;
  std::vector<SweepCell> cells;
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 3u);

  const auto header = Sweep::csv_header();
  const auto col = [&header](const char* name) {
    return static_cast<std::size_t>(
        std::find(header.begin(), header.end(), name) - header.begin());
  };
  ASSERT_LT(col("graph_edges"), header.size());
  ASSERT_LT(col("connected"), header.size());
  ASSERT_LT(col("status"), header.size());

  // skip: no topology axis at all.
  EXPECT_FALSE(cells[0].graph_edges.has_value());
  EXPECT_FALSE(cells[0].connected.has_value());
  EXPECT_EQ(Sweep::csv_row(cells[0])[col("graph_edges")], "-");
  EXPECT_EQ(Sweep::csv_row(cells[0])[col("connected")], "-");
  EXPECT_NE(Sweep::json_line(cells[0]).find("\"graph_edges\":null"),
            std::string::npos);
  EXPECT_NE(Sweep::json_line(cells[0]).find("\"connected\":null"),
            std::string::npos);

  // graph on the cycle: measured — C_120 has 120 edges and is connected.
  ASSERT_TRUE(cells[1].graph_edges.has_value());
  EXPECT_EQ(*cells[1].graph_edges, 120u);
  EXPECT_EQ(cells[1].connected, std::optional<bool>(true));
  EXPECT_EQ(Sweep::csv_row(cells[1])[col("graph_edges")], "120");
  EXPECT_EQ(Sweep::csv_row(cells[1])[col("connected")], "1");
  EXPECT_NE(Sweep::json_line(cells[1]).find("\"graph_edges\":120"),
            std::string::npos);

  // graph-batched on the cycle: the analytic degree-class summary.
  EXPECT_EQ(cells[2].graph_edges, std::optional<std::uint64_t>(120u));
  EXPECT_EQ(cells[2].connected, std::optional<bool>(true));
  EXPECT_EQ(cells[2].status, "ok");
}

runner::SweepPoint topology_point(const char* engine, sim::GraphSpec graph,
                                  pp::Count n) {
  runner::SweepPoint point;
  point.engine = engine;
  point.graph = graph;
  point.n = n;
  point.k = 2;
  return point;
}

TEST(RealizeTopology, ConnectedReflectsTheRealizedTopology) {
  // The connectivity the disconnected-topology rule reads, for the
  // materialized and the aggregated representation alike.
  const sim::GraphSpec cycle{sim::GraphSpec::Kind::kCycle};
  // G(300, 0.003) sits far below the ln n / n connectivity threshold:
  // sparse enough for isolated vertices but not empty.
  const sim::GraphSpec sparse{sim::GraphSpec::Kind::kErdosRenyi, 4, 0.003};
  // Engines without a topology realize none, whatever the point's graph.
  for (const char* engine : {"skip", "batched"}) {
    const auto topology =
        runner::realize_topology(topology_point(engine, cycle, 300), 1);
    EXPECT_EQ(topology.connected, std::nullopt) << engine;
    EXPECT_FALSE(topology.graph.has_value() || topology.degrees.has_value());
  }
  for (const char* engine : {"graph", "graph-batched"}) {
    EXPECT_EQ(
        runner::realize_topology(topology_point(engine, cycle, 300), 1)
            .connected,
        std::optional<bool>(true))
        << engine;
    EXPECT_EQ(
        runner::realize_topology(topology_point(engine, sparse, 300), 1)
            .connected,
        std::optional<bool>(false))
        << engine;
  }
}

TEST(RealizeTopology, SharingItReplaysTheEnginesOwnTopology) {
  // run_usd shares the topology it realizes from its seed: an engine that
  // builds its own from the same seed must run the same trial.
  const auto x0 = pp::Configuration::uniform(400, 2, 0);
  const sim::GraphSpec regular{sim::GraphSpec::Kind::kRegular, 4};
  const auto& registry = sim::Registry::instance();
  for (const char* engine : {"graph", "graph-batched"}) {
    const auto point = topology_point(engine, regular, 400);
    const auto topology = runner::realize_topology(point, 17);
    sim::EngineOptions own;
    own.graph = regular;
    const auto built = registry.create(engine, x0, 17, own);
    const auto shared = registry.create(
        engine, x0, 17, runner::engine_options({}, point, topology));
    ASSERT_TRUE(built->run_to_consensus(built->default_budget())) << engine;
    ASSERT_TRUE(shared->run_to_consensus(shared->default_budget()));
    EXPECT_EQ(shared->elapsed(), built->elapsed()) << engine;
    EXPECT_EQ(shared->consensus_opinion(), built->consensus_opinion());
  }
}

TEST(Sweep, DisconnectedTopologyShortCircuitsUnderDefaultBudget) {
  // G(200, 0.005) is disconnected with overwhelming probability, and
  // under the default budget (max_time == 0) most trials would grind
  // through the enormous default cap — the de-facto hang this fix
  // exists for. The point must record connected=0 and report every
  // trial as a timeout at the default cap without simulating.
  SweepSpec spec;
  spec.ns = {200};
  spec.ks = {2};
  spec.engines = {"graph"};
  spec.graphs = {sim::GraphSpec{sim::GraphSpec::Kind::kErdosRenyi, 4, 0.005}};
  spec.trials = 3;
  spec.master_seed = 5;
  std::vector<SweepCell> cells;
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].connected, std::optional<bool>(false));
  EXPECT_EQ(cells[0].status, "timeout");
  EXPECT_DOUBLE_EQ(cells[0].converged_rate, 0.0);
  EXPECT_DOUBLE_EQ(cells[0].plurality_win_rate, 0.0);
  ASSERT_EQ(cells[0].parallel_time.count(), 3u);
  // Parallel time reports the timeout horizon: the default cap / n.
  EXPECT_DOUBLE_EQ(
      cells[0].parallel_time.mean(),
      static_cast<double>(core::default_interaction_cap(200, 2)) / 200.0);

  // Byte-identical across scheduling, like every other cell.
  const std::string reference = render(Sweep(spec));
  spec.threads = 4;
  spec.stripe_width = 1;
  EXPECT_EQ(render(Sweep(spec)), reference);

  // The aggregated engine hits the same guard through its degree classes
  // (mean degree ~1 realizes isolated vertices).
  SweepSpec aggregated = spec;
  aggregated.threads = 0;
  aggregated.stripe_width = SweepSpec{}.stripe_width;
  aggregated.ns = {2000};
  aggregated.engines = {"graph-batched"};
  aggregated.graphs = {
      sim::GraphSpec{sim::GraphSpec::Kind::kErdosRenyi, 4, 0.0005}};
  std::vector<SweepCell> agg_cells;
  Sweep(aggregated).run(
      [&agg_cells](const SweepCell& cell) { agg_cells.push_back(cell); });
  ASSERT_EQ(agg_cells.size(), 1u);
  EXPECT_EQ(agg_cells[0].connected, std::optional<bool>(false));
  EXPECT_EQ(agg_cells[0].status, "timeout");
  EXPECT_DOUBLE_EQ(agg_cells[0].converged_rate, 0.0);
}

TEST(Sweep, DisconnectedTopologyRunsHonestlyUnderExplicitBudget) {
  // An explicit --budget bounds the cost, so a disconnected point is
  // simulated for real: global consensus by coincidental component
  // alignment is a measurable quantity (components each converge; with
  // k = 2 and few components it happens often), and the sweep must
  // report the measured rate instead of hardcoding zero.
  SweepSpec spec;
  spec.ns = {60};
  spec.ks = {2};
  spec.engines = {"graph"};
  // Two disjoint-ish sparse blobs: G(60, 0.05) at this seed realizes a
  // disconnected graph whose components still converge individually.
  spec.graphs = {sim::GraphSpec{sim::GraphSpec::Kind::kErdosRenyi, 4, 0.05}};
  spec.trials = 20;
  spec.master_seed = 1;
  spec.max_time = 2'000'000;
  std::vector<SweepCell> cells;
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_EQ(cells[0].connected, std::optional<bool>(false))
      << "seed 1 was chosen to realize a disconnected G(60, 0.05); if "
         "topology construction changed, pick a new seed";
  EXPECT_EQ(cells[0].status, "ok");  // ran for real, no short-circuit
  // Some trials reach coincidental global consensus within the budget;
  // the measured rate is the point of running honestly.
  EXPECT_GT(cells[0].converged_rate, 0.0);
  ASSERT_EQ(cells[0].parallel_time.count(), 20u);
  // No trial exceeded the explicit budget.
  EXPECT_LE(cells[0].parallel_time.max(), 2'000'000.0 / 60.0);
}

TEST(Sweep, BudgetOverrideCapsAndUncapsTrials) {
  // max_time = 0 uses each engine's default budget; an explicit budget
  // replaces it — tiny budgets starve convergence, large ones let
  // slow-mixing topologies (the cycle) finish where the complete-graph
  // default cap cannot.
  SweepSpec spec;
  spec.ns = {64};
  spec.ks = {2};
  spec.engines = {"graph"};
  spec.graphs = {sim::GraphSpec{sim::GraphSpec::Kind::kCycle}};
  spec.trials = 3;
  spec.max_time = 10;  // 10 interactions: nothing converges
  std::vector<SweepCell> cells;
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_DOUBLE_EQ(cells[0].converged_rate, 0.0);
  EXPECT_LE(cells[0].parallel_time.mean(), 10.0 / 64.0);

  spec.max_time = 100'000'000;  // far past the cycle's consensus time
  cells.clear();
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_DOUBLE_EQ(cells[0].converged_rate, 1.0);
}

TEST(Sweep, ShortCircuitReportsTheEnginePublishedBudget) {
  // The timeout horizon of a short-circuited cell must come from the
  // engine's published default budget (EngineInfo::default_budget), not a
  // hardcoded core::default_interaction_cap — engines are free to publish
  // a different default, and the recorded horizon has to be the budget a
  // simulated trial would actually have run to.
  constexpr std::uint64_t kProbeBudget = 777'000;
  auto& registry = sim::Registry::instance();
  if (!registry.contains("published-budget-probe")) {
    registry.add(
        "published-budget-probe",
        {.factory =
             [](const pp::Configuration& initial, std::uint64_t seed,
                const sim::EngineOptions&) {
               return sim::Registry::instance().create("skip", initial, seed);
             },
         .description = "test probe with a non-default published budget",
         .default_budget = [](pp::Count, int) { return kProbeBudget; },
         .uses_graph_axis = true});
  }
  SweepSpec spec;
  spec.ns = {200};
  spec.ks = {2};
  spec.engines = {"published-budget-probe"};
  spec.graphs = {sim::GraphSpec{sim::GraphSpec::Kind::kErdosRenyi, 4, 0.005}};
  spec.trials = 2;
  spec.master_seed = 5;  // Same disconnected realization as above.
  std::vector<SweepCell> cells;
  Sweep(spec).run([&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_EQ(cells[0].status, "timeout");
  EXPECT_DOUBLE_EQ(cells[0].parallel_time.mean(),
                   static_cast<double>(kProbeBudget) / 200.0);
}

TEST(Sweep, EngineNamesComeFromTheRegistry) {
  for (const auto& name : sim::Registry::instance().names()) {
    EXPECT_TRUE(sim::Registry::instance().contains(name));
  }
  EXPECT_FALSE(sim::Registry::instance().contains("warp-drive"));
}

TEST(Sweep, RejectsInvalidSpecs) {
  auto spec = tiny_spec();
  spec.trials = -1;
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec = tiny_spec();
  spec.engines.clear();
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec = tiny_spec();
  spec.engines = {"warp-drive"};  // not in the registry
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec = tiny_spec();
  spec.undecided_fraction = 1.5;
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  // Constraints that would otherwise only surface mid-grid fail upfront:
  // per-interaction engines cap n below 2^32 (registry metadata), sync
  // needs a decided start, batched needs a valid chunk fraction.
  spec = tiny_spec();
  spec.ns = {300, std::uint64_t{1} << 33};
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec.engines = {"batched"};
  EXPECT_NO_THROW(Sweep{spec});  // batched has no 32-bit cap
  spec.batch_chunk_fraction = 2.0;
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec = tiny_spec();
  spec.engines = {"sync"};
  spec.undecided_fraction = 0.5;
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  // Bias values are validated upfront too (UB casts otherwise).
  spec = tiny_spec();
  spec.bias_kind = BiasKind::kAdditive;
  spec.bias_values = {-50.0};
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec.bias_values = {10.0};
  EXPECT_NO_THROW(Sweep{spec});
  spec.bias_kind = BiasKind::kMultiplicative;
  spec.bias_values = {1.0};
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  // The work-stealing grain must be a positive trial count; shuffled
  // execution is always allowed (it is pure scheduling).
  spec = tiny_spec();
  spec.stripe_width = 0;
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec.stripe_width = 1;
  spec.shuffle_points = true;
  EXPECT_NO_THROW(Sweep{spec});
  // Geometric starts define their own support shape: no bias axis, and
  // the ratio must be a valid geometric ratio.
  spec = tiny_spec();
  spec.starts = {runner::StartProfile{
      runner::StartProfile::Kind::kGeometric, 0.5}};
  spec.bias_kind = BiasKind::kAdditive;
  spec.bias_values = {10.0};
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec.bias_kind = BiasKind::kNone;
  EXPECT_NO_THROW(Sweep{spec});
  spec.starts = {runner::StartProfile{
      runner::StartProfile::Kind::kGeometric, 0.0}};
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec = tiny_spec();
  spec.starts.clear();
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  // The graph axis needs a topology-taking engine and feasible specs.
  spec = tiny_spec();
  spec.graphs = {sim::GraphSpec{sim::GraphSpec::Kind::kCycle}};
  EXPECT_THROW(Sweep{spec}, util::CheckError);  // skip/gossip take no graph
  spec = tiny_spec();
  spec.engines = {"graph"};
  spec.graphs = {sim::GraphSpec{sim::GraphSpec::Kind::kRegular, 3}};
  spec.ns = {301};  // n * d odd
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec.ns = {300};
  EXPECT_NO_THROW(Sweep{spec});
  spec.graphs = {sim::GraphSpec{sim::GraphSpec::Kind::kErdosRenyi, 4, 1.5}};
  EXPECT_THROW(Sweep{spec}, util::CheckError);
  spec.graphs.clear();
  EXPECT_THROW(Sweep{spec}, util::CheckError);
}

// ---- Emission failure paths ----
//
// The calling thread emits every cell; workers only aggregate. A failing
// consumer must stop the grid, and a failing trial must stop emission,
// with no cell emitted twice in either case.

/// A "skip" engine behind a factory that counts the trials it starts,
/// can slow each one down, and throws on one population size: enough to
/// see how much of a failed sweep actually ran.
struct ProbeState {
  std::atomic<int> started{0};
  std::atomic<pp::Count> throw_at_n{0};
  std::atomic<int> sleep_us{0};
};

constexpr const char* kProbeEngine = "test-probe";

ProbeState& probe_state() {
  static ProbeState probe;
  static const bool registered = [] {
    sim::EngineInfo info = *sim::Registry::instance().find("skip");
    info.description = "skip behind a counting, throwing test factory";
    info.factory = [](const pp::Configuration& x0, std::uint64_t seed,
                      const sim::EngineOptions& options) {
      probe.started.fetch_add(1, std::memory_order_relaxed);
      if (x0.n() == probe.throw_at_n.load(std::memory_order_relaxed)) {
        throw std::runtime_error("probe trial failed");
      }
      const int us = probe.sleep_us.load(std::memory_order_relaxed);
      if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
      return sim::Registry::instance().create("skip", x0, seed, options);
    };
    sim::Registry::instance().add(kProbeEngine, std::move(info));
    return true;
  }();
  (void)registered;
  return probe;
}

/// Arms the probe for one test and disarms it on every exit path, so the
/// registered engine is plain `skip` to the rest of the suite.
struct ArmedProbe {
  ArmedProbe(pp::Count throw_at_n, int sleep_us) : probe(probe_state()) {
    probe.started.store(0);
    probe.throw_at_n.store(throw_at_n);
    probe.sleep_us.store(sleep_us);
  }
  ~ArmedProbe() {
    probe.throw_at_n.store(0);
    probe.sleep_us.store(0);
  }
  ArmedProbe(const ArmedProbe&) = delete;
  ArmedProbe& operator=(const ArmedProbe&) = delete;
  ProbeState& probe;
};

/// 100 probe points (n = 100, 101, ..., 199) of 4 one-trial stripes.
SweepSpec probe_spec(std::size_t threads) {
  SweepSpec spec;
  spec.engines = {kProbeEngine};
  spec.ns.clear();
  for (pp::Count n = 100; n < 200; ++n) spec.ns.push_back(n);
  spec.ks = {2};
  spec.trials = 4;
  spec.stripe_width = 1;
  spec.master_seed = 5;
  spec.threads = threads;
  return spec;
}

TEST(SweepEmission, ThrowingConsumerStopsTheGrid) {
  constexpr std::size_t kFailAt = 3;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const ArmedProbe armed(0, 500);
    const Sweep sweep(probe_spec(threads));
    ASSERT_EQ(sweep.grid().size(), 100u);
    constexpr int kUnits = 400;
    std::vector<std::size_t> emitted;
    const auto consumer = [&emitted](const SweepCell& cell) {
      emitted.push_back(cell.point.index);
      if (cell.point.index == kFailAt) {
        throw std::runtime_error("consumer failed");
      }
    };
    EXPECT_THROW(sweep.run(consumer), std::runtime_error);
    // Cells 0..j, each once, and nothing after the failing cell.
    std::vector<std::size_t> expected(kFailAt + 1);
    for (std::size_t i = 0; i <= kFailAt; ++i) expected[i] = i;
    EXPECT_EQ(emitted, expected) << threads << " threads";
    // The failure poisoned the graph: workers stopped claiming units long
    // before the 400-unit grid (0.2 s of sleeping trials) ran out.
    EXPECT_LT(armed.probe.started.load(), kUnits) << threads << " threads";
  }
}

TEST(SweepEmission, ThrowingTrialStopsEmission) {
  constexpr pp::Count kFailingN = 150;  // grid index 50
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const ArmedProbe armed(kFailingN, 0);
    const Sweep sweep(probe_spec(threads));
    std::vector<std::size_t> emitted;
    const auto consumer = [&emitted](const SweepCell& cell) {
      emitted.push_back(cell.point.index);
    };
    EXPECT_THROW(sweep.run(consumer), std::runtime_error);
    // Emission is in grid order and the failing point never completes,
    // so what was emitted is a duplicate-free prefix that stops before it.
    for (std::size_t i = 0; i < emitted.size(); ++i) {
      EXPECT_EQ(emitted[i], i) << threads << " threads";
    }
    EXPECT_LE(emitted.size(), 50u) << threads << " threads";
  }
}

}  // namespace
}  // namespace kusd
