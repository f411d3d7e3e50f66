// Stream pins of the tau-leap engines, recorded as literals: per-trial
// (interactions, chunks, winner) of core::BatchedUsdSimulator and
// sim::BatchedGraphEngine under both chunk policies, and the first 200
// adaptive proposals of core::ChunkController::propose along one headline
// trajectory. The flat `batched` chain runs through the class-structured
// kernel and bound as one class of weight 1; these pins are what checks
// that its event weights, reject order and tau bound are still the flat
// chain's, bit for bit. Any change that moves a pin changes sweep bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/batched_usd.hpp"
#include "core/budget.hpp"
#include "core/chunk_controller.hpp"
#include "core/round_engine.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "sim/batched_graph_engine.hpp"
#include "sim/graph_spec.hpp"

namespace kusd {
namespace {

using core::ChunkPolicy::kAdaptive;
using core::ChunkPolicy::kFixed;

struct FlatPin {
  core::ChunkPolicy policy;
  pp::Count n;
  int k;
  std::uint64_t seed;
  std::uint64_t interactions;
  std::uint64_t chunks;
  int winner;
};

// Uniform decided start, run to consensus under the default cap.
constexpr FlatPin kFlatPins[] = {
    {kFixed, 10000, 2, 11, 295400u, 1477u, 0},
    {kFixed, 10000, 2, 22, 301800u, 1509u, 0},
    {kFixed, 10000, 2, 33, 250000u, 1250u, 1},
    {kFixed, 10000, 8, 11, 525600u, 2628u, 7},
    {kFixed, 10000, 8, 22, 442200u, 2211u, 3},
    {kFixed, 10000, 8, 33, 520600u, 2603u, 2},
    {kFixed, 10000, 32, 11, 974700u, 4875u, 25},
    {kFixed, 10000, 32, 22, 592200u, 2961u, 13},
    {kFixed, 10000, 32, 33, 975800u, 4879u, 24},
    {kFixed, 1000000, 2, 11, 43740000u, 2187u, 1},
    {kFixed, 1000000, 2, 22, 38240000u, 1912u, 1},
    {kFixed, 1000000, 2, 33, 44900000u, 2245u, 1},
    {kFixed, 1000000, 8, 11, 86780000u, 4339u, 5},
    {kFixed, 1000000, 8, 22, 94900000u, 4745u, 4},
    {kFixed, 1000000, 8, 33, 90680000u, 4534u, 3},
    {kFixed, 1000000, 32, 11, 166680000u, 8334u, 2},
    {kFixed, 1000000, 32, 22, 194510000u, 9727u, 6},
    {kFixed, 1000000, 32, 33, 185370000u, 9270u, 5},
    {kFixed, 100000000, 2, 11, 5920000000u, 2960u, 0},
    {kFixed, 100000000, 2, 22, 5014000000u, 2507u, 0},
    {kFixed, 100000000, 2, 33, 5404000000u, 2702u, 1},
    {kFixed, 100000000, 8, 11, 13918000000u, 6959u, 4},
    {kFixed, 100000000, 8, 22, 12106000000u, 6053u, 0},
    {kFixed, 100000000, 8, 33, 11678000000u, 5839u, 1},
    {kFixed, 100000000, 32, 11, 32750000000u, 16375u, 15},
    {kFixed, 100000000, 32, 22, 35048000000u, 17524u, 27},
    {kFixed, 100000000, 32, 33, 32002000000u, 16001u, 21},
    {kAdaptive, 10000, 2, 11, 283367u, 331u, 1},
    {kAdaptive, 10000, 2, 22, 236928u, 307u, 1},
    {kAdaptive, 10000, 2, 33, 365969u, 348u, 0},
    {kAdaptive, 10000, 8, 11, 629378u, 487u, 1},
    {kAdaptive, 10000, 8, 22, 526282u, 425u, 4},
    {kAdaptive, 10000, 8, 33, 446221u, 379u, 2},
    {kAdaptive, 10000, 32, 11, 837113u, 1140u, 25},
    {kAdaptive, 10000, 32, 22, 736395u, 1051u, 30},
    {kAdaptive, 10000, 32, 33, 768905u, 1078u, 6},
    {kAdaptive, 1000000, 2, 11, 43273292u, 526u, 0},
    {kAdaptive, 1000000, 2, 22, 37371180u, 528u, 0},
    {kAdaptive, 1000000, 2, 33, 48770640u, 546u, 1},
    {kAdaptive, 1000000, 8, 11, 81648246u, 630u, 4},
    {kAdaptive, 1000000, 8, 22, 88695509u, 660u, 0},
    {kAdaptive, 1000000, 8, 33, 83707172u, 639u, 1},
    {kAdaptive, 1000000, 32, 11, 168892122u, 805u, 14},
    {kAdaptive, 1000000, 32, 22, 238913475u, 941u, 23},
    {kAdaptive, 1000000, 32, 33, 213574855u, 901u, 5},
    {kAdaptive, 100000000, 2, 11, 5083952654u, 724u, 1},
    {kAdaptive, 100000000, 2, 22, 5006167758u, 729u, 1},
    {kAdaptive, 100000000, 2, 33, 5107036616u, 743u, 1},
    {kAdaptive, 100000000, 8, 11, 12813859612u, 907u, 4},
    {kAdaptive, 100000000, 8, 22, 12835396698u, 908u, 3},
    {kAdaptive, 100000000, 8, 33, 15253249421u, 975u, 2},
    {kAdaptive, 100000000, 32, 11, 30144850621u, 1243u, 14},
    {kAdaptive, 100000000, 32, 22, 36236550002u, 1373u, 21},
    {kAdaptive, 100000000, 32, 33, 35483529966u, 1356u, 7}
};

TEST(TauLeapPins, BatchedUsdSimulatorTrials) {
  for (const FlatPin& pin : kFlatPins) {
    SCOPED_TRACE(std::string(core::to_string(pin.policy)) +
                 " n=" + std::to_string(pin.n) + " k=" +
                 std::to_string(pin.k) + " seed=" + std::to_string(pin.seed));
    core::ChunkOptions options;
    options.policy = pin.policy;
    core::BatchedUsdSimulator sim(pp::Configuration::uniform(pin.n, pin.k),
                                  rng::Rng(pin.seed), options);
    ASSERT_TRUE(sim.run_to_consensus(
        core::default_interaction_cap(pin.n, pin.k)));
    EXPECT_EQ(sim.interactions(), pin.interactions);
    EXPECT_EQ(sim.chunks(), pin.chunks);
    EXPECT_EQ(sim.consensus_opinion(), pin.winner);
  }
}

struct GraphPin {
  core::ChunkPolicy policy;
  const char* graph;
  std::uint64_t seed;
  std::uint64_t interactions;
  std::uint64_t chunks;
  int winner;
};

// n = 1e6, k = 8, uniform decided start, run to consensus under the
// default budget.
constexpr GraphPin kGraphPins[] = {
    {kFixed, "complete", 11, 86780000u, 4339u, 5},
    {kFixed, "complete", 22, 94900000u, 4745u, 4},
    {kFixed, "complete", 33, 90680000u, 4534u, 3},
    {kFixed, "regular:8", 11, 86780000u, 4339u, 5},
    {kFixed, "regular:8", 22, 94900000u, 4745u, 4},
    {kFixed, "regular:8", 33, 90680000u, 4534u, 3},
    {kFixed, "er:auto", 11, 109120000u, 5471u, 0},
    {kFixed, "er:auto", 22, 94510000u, 4739u, 1},
    {kFixed, "er:auto", 33, 98320000u, 4925u, 1},
    {kAdaptive, "complete", 11, 81648246u, 630u, 4},
    {kAdaptive, "complete", 22, 88695509u, 660u, 0},
    {kAdaptive, "complete", 33, 83707172u, 639u, 1},
    {kAdaptive, "regular:8", 11, 81648246u, 630u, 4},
    {kAdaptive, "regular:8", 22, 88695509u, 660u, 0},
    {kAdaptive, "regular:8", 33, 83707172u, 639u, 1},
    {kAdaptive, "er:auto", 11, 95917657u, 2948u, 3},
    {kAdaptive, "er:auto", 22, 93636121u, 2816u, 1},
    {kAdaptive, "er:auto", 33, 97581437u, 2853u, 7}
};

TEST(TauLeapPins, BatchedGraphEngineTrials) {
  const pp::Count n = 1000000;
  for (const GraphPin& pin : kGraphPins) {
    SCOPED_TRACE(std::string(core::to_string(pin.policy)) + " " + pin.graph +
                 " seed=" + std::to_string(pin.seed));
    sim::EngineOptions options;
    options.batch.policy = pin.policy;
    options.graph = *sim::parse_graph_spec(pin.graph);
    sim::BatchedGraphEngine engine(pp::Configuration::uniform(n, 8), pin.seed,
                                   options);
    engine.advance(engine.default_budget());
    ASSERT_TRUE(engine.is_consensus());
    EXPECT_EQ(engine.elapsed(), pin.interactions);
    EXPECT_EQ(engine.chunks(), pin.chunks);
    EXPECT_EQ(engine.consensus_opinion(), pin.winner);
  }
}

TEST(TauLeapPins, FirstAdaptiveProposalsAtTheHeadline) {
  // BatchedUsdSimulator::step replayed by hand at n = 1e8, k = 32 from a
  // uniform decided start. The undecided count's band binds here, so these
  // values pin the bound's undecided-gain term, d^2 - sum_j x_j^2, whose
  // class form D_c W_d - sum_j x_cj X_j must round exactly like it.
  constexpr std::array<std::uint64_t, 200> kProposals = {
    1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 3, 3, 3, 3,
    3, 3, 3, 4, 4, 4, 4, 4,
    5, 5, 5, 5, 6, 6, 6, 7,
    7, 7, 8, 8, 8, 9, 9, 10,
    10, 11, 11, 12, 12, 13, 13, 14,
    15, 16, 16, 17, 18, 19, 20, 21,
    22, 23, 24, 25, 26, 28, 29, 31,
    32, 34, 36, 37, 39, 41, 43, 45,
    48, 50, 53, 55, 58, 61, 64, 67,
    70, 74, 78, 82, 86, 90, 95, 99,
    104, 109, 115, 121, 127, 133, 140, 147,
    154, 162, 170, 178, 187, 197, 207, 217,
    228, 239, 251, 264, 277, 291, 306, 321,
    337, 354, 372, 390, 409, 430, 451, 474,
    497, 522, 548, 575, 604, 634, 666, 700,
    735, 771, 810, 851, 894, 938, 985, 1034,
    1086, 1140, 1197, 1257, 1319, 1385, 1454, 1527,
    1603, 1683, 1768, 1856, 1949, 2047, 2149, 2257,
    2369, 2488, 2613, 2744, 2881, 3025, 3177, 3336
  };
  const pp::Count n = 100000000;
  const int k = 32;
  core::ChunkOptions options;
  options.policy = kAdaptive;
  core::ChunkController controller(options, n);
  core::RoundEngine engine(k);
  rng::Rng rng(7);
  const auto x0 = pp::Configuration::uniform(n, k);
  std::vector<pp::Count> opinions(x0.opinions().begin(), x0.opinions().end());
  pp::Count undecided = x0.undecided();
  for (std::size_t i = 0; i < kProposals.size(); ++i) {
    std::uint64_t m = controller.propose(opinions, undecided);
    ASSERT_EQ(m, kProposals[i]) << "proposal " << i;
    while (!engine.try_async_chunk(opinions, undecided, n, m, rng)) {
      controller.on_reject();
      m = std::max<std::uint64_t>(1, m / 2);
    }
  }
}

}  // namespace
}  // namespace kusd
