// The USD under the graph-restricted scheduler (core::GraphScheduler).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/graph_scheduler.hpp"
#include "pp/graph.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using core::GraphScheduler;
using pp::InteractionGraph;

/// Steps until one state holds every vertex, or `max_steps` have run.
void run_until_unanimous(GraphScheduler& sched, std::uint64_t max_steps) {
  const std::uint64_t n = sched.states().size();
  const auto unanimous = [&] {
    return std::ranges::find(sched.counts(), n) != sched.counts().end();
  };
  for (std::uint64_t s = 0; s < max_steps && !unanimous(); ++s) sched.step();
}

TEST(GraphScheduler, ConservesPopulationAndCounts) {
  const auto g = InteractionGraph::cycle(60);
  std::vector<int> init(60);
  for (int i = 0; i < 60; ++i) init[static_cast<std::size_t>(i)] = i % 3;
  GraphScheduler sched(3, g, init, rng::Rng(17));
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
  const auto g = InteractionGraph::cycle(5);
  EXPECT_THROW(GraphScheduler(2, g, {0, 1, 2, 3, 9}, rng::Rng(1)),
               util::CheckError);
  EXPECT_THROW(GraphScheduler(2, g, {0, 1}, rng::Rng(1)), util::CheckError);
  EXPECT_THROW(GraphScheduler(0, g, {0, 0, 0, 0, 0}, rng::Rng(1)),
               util::CheckError);
}

TEST(GraphScheduler, UsdReachesConsensusOnCompleteGraph) {
  const auto g = InteractionGraph::complete(80);
  std::vector<int> init(80);
  for (int i = 0; i < 80; ++i) init[static_cast<std::size_t>(i)] = i % 2;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    GraphScheduler sched(2, g, init, rng::Rng(seed));
    run_until_unanimous(sched, 10'000'000);
    EXPECT_TRUE(sched.counts()[0] == 80 || sched.counts()[1] == 80);
  }
}

TEST(GraphScheduler, UsdSlowerOnCycleThanCompleteGraph) {
  // On the cycle information travels locally: consensus takes far longer
  // than on the complete graph — the reason the paper's complete-graph
  // assumption matters.
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
    GraphScheduler a(2, complete, init, rng::Rng(100 + seed));
    run_until_unanimous(a, 100'000'000);
    complete_total += static_cast<double>(a.steps());
    GraphScheduler b(2, cycle, init, rng::Rng(200 + seed));
    run_until_unanimous(b, 100'000'000);
    cycle_total += static_cast<double>(b.steps());
  }
  EXPECT_GT(cycle_total, 2.0 * complete_total);
}

TEST(GraphScheduler, EpidemicCoversConnectedGraph) {
  // With one opinion the USD is the one-way epidemic: an undecided
  // (susceptible) responder adopts the opinion of a decided (infected)
  // initiator, and nothing ever becomes undecided again.
  rng::Rng gr(23);
  const auto g = InteractionGraph::random_regular(100, 4, gr);
  ASSERT_TRUE(g.is_connected());
  std::vector<int> init(100, 1);  // state 1 is k = 1's undecided state
  init[0] = 0;
  GraphScheduler sched(1, g, init, rng::Rng(29));
  run_until_unanimous(sched, 50'000'000);
  EXPECT_EQ(sched.counts()[0], 100u);
}

}  // namespace
}  // namespace kusd
