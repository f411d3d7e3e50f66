// Interaction graphs and the graph-restricted scheduler.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "core/usd.hpp"
#include "pp/graph.hpp"
#include "pp/graph_scheduler.hpp"
#include "protocols/classic.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using pp::InteractionGraph;

TEST(InteractionGraph, CompleteGraphShape) {
  const auto g = InteractionGraph::complete(10);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 45u);
  EXPECT_TRUE(g.is_connected());
}

TEST(InteractionGraph, CycleShape) {
  const auto g = InteractionGraph::cycle(7);
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_TRUE(g.is_connected());
}

TEST(InteractionGraph, RandomRegularDegreesNearD) {
  rng::Rng r(5);
  const auto g = InteractionGraph::random_regular(200, 4, r);
  EXPECT_TRUE(g.is_connected());
  std::vector<int> degree(200, 0);
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const auto [u, v] = g.edge(i);
    ++degree[u];
    ++degree[v];
  }
  // Configuration model with cleanup: average degree within 5% of d.
  double total = 0;
  for (int d : degree) total += d;
  EXPECT_NEAR(total / 200.0, 4.0, 0.2);
}

TEST(InteractionGraph, ErdosRenyiEdgeCountNearExpectation) {
  rng::Rng r(7);
  const std::uint32_t n = 500;
  const double p = 0.05;
  const auto g = InteractionGraph::erdos_renyi(n, p, r);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              5.0 * std::sqrt(expected));
  // Above the connectivity threshold (p >> ln n / n ~ 0.012).
  EXPECT_TRUE(g.is_connected());
}

TEST(InteractionGraph, ErdosRenyiPOneIsComplete) {
  rng::Rng r(9);
  const auto g = InteractionGraph::erdos_renyi(50, 1.0, r);
  EXPECT_EQ(g.num_edges(), 50u * 49u / 2u);
}

TEST(InteractionGraph, ErdosRenyiTinyPFailsAsEmpty) {
  // Edge probabilities so small that the geometric gap overflows uint64:
  // the gap saturates, so the scan ends before the first edge and the
  // empty graph is reported instead of wrapping into some other graph.
  for (const double p : {1e-20, 1e-30, 1e-300}) {
    rng::Rng r(17);
    EXPECT_THROW(InteractionGraph::erdos_renyi(100, p, r), util::CheckError)
        << "p=" << p;
  }
}

TEST(InteractionGraph, DisconnectedDetected) {
  rng::Rng r(11);
  // Tiny p: isolated vertices almost surely.
  const auto g = InteractionGraph::erdos_renyi(400, 0.002, r);
  EXPECT_FALSE(g.is_connected());
}

TEST(InteractionGraph, SamplePairUsesBothOrientations) {
  const auto g = InteractionGraph::cycle(3);
  rng::Rng r(13);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
  for (int i = 0; i < 6000; ++i) ++seen[g.sample_pair(r)];
  EXPECT_EQ(seen.size(), 6u);  // 3 edges x 2 orientations
  for (const auto& [pair, count] : seen) {
    EXPECT_NEAR(count, 1000, 150);
  }
}

TEST(InteractionGraph, RejectsInvalidParameters) {
  rng::Rng r(15);
  EXPECT_THROW(InteractionGraph::erdos_renyi(10, 0.0, r), util::CheckError);
  EXPECT_THROW(InteractionGraph::random_regular(10, 0, r),
               util::CheckError);
  EXPECT_THROW(InteractionGraph::random_regular(11, 3, r),  // n*d odd
               util::CheckError);
}

TEST(GraphScheduler, ConservesPopulationAndCounts) {
  core::UsdProtocol usd(3);
  const auto g = InteractionGraph::cycle(60);
  std::vector<int> init(60);
  for (int i = 0; i < 60; ++i) init[static_cast<std::size_t>(i)] = i % 3;
  pp::GraphScheduler sched(usd, g, init, rng::Rng(17));
  for (int i = 0; i < 20000; ++i) sched.step();
  std::uint64_t total = 0;
  for (auto c : sched.counts()) total += c;
  EXPECT_EQ(total, 60u);
  // Recount from the state array.
  std::vector<std::uint64_t> recount(4, 0);
  for (int s : sched.states()) ++recount[static_cast<std::size_t>(s)];
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(recount[s], sched.counts()[s]);
  }
}

TEST(GraphScheduler, RejectsBadInitialStates) {
  core::UsdProtocol usd(2);
  const auto g = InteractionGraph::cycle(5);
  EXPECT_THROW(pp::GraphScheduler(usd, g, {0, 1, 2, 3, 9}, rng::Rng(1)),
               util::CheckError);
  EXPECT_THROW(pp::GraphScheduler(usd, g, {0, 1}, rng::Rng(1)),
               util::CheckError);
}

TEST(GraphScheduler, UsdReachesConsensusOnCompleteGraph) {
  core::UsdProtocol usd(2);
  const auto g = InteractionGraph::complete(80);
  std::vector<int> init(80);
  for (int i = 0; i < 80; ++i) init[static_cast<std::size_t>(i)] = i % 2;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    pp::GraphScheduler sched(usd, g, init, rng::Rng(seed));
    sched.run_until(
        [](std::span<const std::uint64_t> c) {
          return c[0] == 80 || c[1] == 80;
        },
        10'000'000);
    EXPECT_TRUE(sched.counts()[0] == 80 || sched.counts()[1] == 80);
  }
}

TEST(GraphScheduler, UsdSlowerOnCycleThanCompleteGraph) {
  // On the cycle information travels locally: consensus takes far longer
  // than on the complete graph — the reason the paper's complete-graph
  // assumption matters.
  core::UsdProtocol usd(2);
  const std::uint32_t n = 64;
  std::vector<int> init(n);
  // Adversarial split: two contiguous blocks.
  for (std::uint32_t i = 0; i < n; ++i) {
    init[i] = i < n / 2 ? 0 : 1;
  }
  const auto complete = InteractionGraph::complete(n);
  const auto cycle = InteractionGraph::cycle(n);
  double complete_total = 0.0, cycle_total = 0.0;
  const int trials = 10;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    pp::GraphScheduler a(usd, complete, init, rng::Rng(100 + seed));
    a.run_until(
        [n](std::span<const std::uint64_t> c) {
          return c[0] == n || c[1] == n;
        },
        100'000'000);
    complete_total += static_cast<double>(a.steps());
    pp::GraphScheduler b(usd, cycle, init, rng::Rng(200 + seed));
    b.run_until(
        [n](std::span<const std::uint64_t> c) {
          return c[0] == n || c[1] == n;
        },
        100'000'000);
    cycle_total += static_cast<double>(b.steps());
  }
  EXPECT_GT(cycle_total, 2.0 * complete_total);
}

TEST(GraphScheduler, EpidemicCoversConnectedGraph) {
  protocols::EpidemicProtocol epidemic;
  rng::Rng gr(23);
  const auto g = InteractionGraph::random_regular(100, 4, gr);
  ASSERT_TRUE(g.is_connected());
  std::vector<int> init(100, protocols::EpidemicProtocol::kSusceptible);
  init[0] = protocols::EpidemicProtocol::kInfected;
  pp::GraphScheduler sched(epidemic, g, init, rng::Rng(29));
  sched.run_until(
      [](std::span<const std::uint64_t> c) { return c[1] == 100; },
      50'000'000);
  EXPECT_EQ(sched.counts()[1], 100u);
}

}  // namespace
}  // namespace kusd
