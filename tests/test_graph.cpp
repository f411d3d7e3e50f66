// Interaction graphs: the topologies and their edge sampler.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "pp/graph.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using pp::InteractionGraph;

/// FNV-1a over the edge list in order: pins a realization, whose edge
/// order reaches the sweep bytes through the scheduler's edge draws.
std::uint64_t edge_list_hash(const InteractionGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const auto [u, v] = g.edge(i);
    for (const std::uint32_t x : {u, v}) {
      h ^= x;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

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
  // This realization is a simple pairing; pin it and the generator after.
  EXPECT_EQ(g.num_edges(), 400u);
  EXPECT_EQ(edge_list_hash(g), 0x3959f562bf399665ULL);
  EXPECT_EQ(r.next_u64(), 0xe486c62ac00077b1ULL);
}

TEST(InteractionGraph, RandomRegularKeepsTheLastPairingDeduplicated) {
  // regular:8 on 64 vertices is almost never a simple pairing, so all 50
  // pairings are rejected and the last one loses its self-loops and
  // repeated edges: fewer than n d / 2 edges, each once, sorted.
  rng::Rng r(11);
  const auto g = InteractionGraph::random_regular(64, 8, r);
  EXPECT_EQ(g.num_edges(), 240u);
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    EXPECT_LT(g.edge(i).first, g.edge(i).second);
    if (i > 0) {
      EXPECT_LT(g.edge(i - 1), g.edge(i));
    }
  }
  EXPECT_EQ(edge_list_hash(g), 0xefd29d54de00f7d1ULL);
  EXPECT_EQ(r.next_u64(), 0x8d2698ea19557649ULL);
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
  EXPECT_EQ(g.num_edges(), 6284u);
  EXPECT_EQ(edge_list_hash(g), 0x72c1080f16502496ULL);
  EXPECT_EQ(r.next_u64(), 0x0822bc2f6da4a74cULL);
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

}  // namespace
}  // namespace kusd
