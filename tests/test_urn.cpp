// Urn: linear/Fenwick engine equivalence and sampling correctness.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rng/rng.hpp"
#include "urn/urn.hpp"

namespace kusd {
namespace {

TEST(Urn, EngineSelection) {
  std::vector<std::uint64_t> small(8, 1);
  std::vector<std::uint64_t> large(urn::kLinearThreshold + 1, 1);
  EXPECT_FALSE(urn::Urn(small).uses_fenwick());
  EXPECT_TRUE(urn::Urn(large).uses_fenwick());
  EXPECT_TRUE(urn::Urn(small, urn::UrnEngine::kFenwick).uses_fenwick());
  EXPECT_FALSE(urn::Urn(large, urn::UrnEngine::kLinear).uses_fenwick());
}

TEST(Urn, FindIdenticalAcrossEngines) {
  const std::vector<std::uint64_t> counts{4, 0, 7, 1, 0, 9, 3};
  urn::Urn lin(counts, urn::UrnEngine::kLinear);
  urn::Urn fen(counts, urn::UrnEngine::kFenwick);
  for (std::uint64_t r = 0; r < lin.total(); ++r) {
    ASSERT_EQ(lin.find(r), fen.find(r)) << "position " << r;
  }
}

TEST(Urn, FindAgreesAcrossEnginesWithZeroCountsAnywhere) {
  // Zero-count categories at the front, in the middle and at the back,
  // in runs and alone; every position r must map to the same category,
  // the first one whose prefix sum exceeds r.
  const std::vector<std::vector<std::uint64_t>> cases = {
      {0, 0, 3, 1, 0, 5},
      {2, 0, 0, 0, 4, 0, 1},
      {1, 6, 0, 2, 0, 0},
      {0, 7, 0},
      {0, 0, 0, 9},
      {5},
      {0, 1},
      {3, 0},
  };
  std::vector<std::vector<std::uint64_t>> all = cases;
  rng::Rng pick(91);
  for (const std::size_t k : {16, 63, 64, 65, 70, 130}) {
    std::vector<std::uint64_t> counts(k);
    for (auto& c : counts) c = pick.bounded(3) == 0 ? 0 : pick.bounded(5);
    counts.front() = 0;
    counts.back() = 0;
    counts[k / 2] = 0;
    counts[1] += 1;  // keep the total positive
    all.push_back(counts);
  }
  for (const auto& counts : all) {
    urn::Urn lin(counts, urn::UrnEngine::kLinear);
    urn::Urn fen(counts, urn::UrnEngine::kFenwick);
    std::size_t expected = 0;
    std::uint64_t prefix = counts[0];
    for (std::uint64_t r = 0; r < lin.total(); ++r) {
      while (prefix <= r) prefix += counts[++expected];
      ASSERT_EQ(lin.find(r), expected) << "k=" << counts.size() << " r=" << r;
      ASSERT_EQ(fen.find(r), expected) << "k=" << counts.size() << " r=" << r;
    }
  }
}

TEST(Urn, MovePreservesTotal) {
  const std::vector<std::uint64_t> counts{5, 5, 5};
  urn::Urn u(counts);
  u.move(0, 2);
  EXPECT_EQ(u.total(), 15u);
  EXPECT_EQ(u.count(0), 4u);
  EXPECT_EQ(u.count(2), 6u);
  u.move(1, 1);  // self-move is a no-op
  EXPECT_EQ(u.count(1), 5u);
}

TEST(Urn, CountsViewReflectsMutations) {
  const std::vector<std::uint64_t> counts{1, 2, 3};
  urn::Urn u(counts);
  u.add(0, 4);
  EXPECT_EQ(u.counts()[0], 5u);
  EXPECT_EQ(u.counts()[1], 2u);
}

class UrnEngineSweep : public ::testing::TestWithParam<urn::UrnEngine> {};

TEST_P(UrnEngineSweep, SampleFrequenciesMatchProportions) {
  const std::vector<std::uint64_t> counts{100, 300, 0, 600};
  urn::Urn u(counts, GetParam());
  rng::Rng r(71);
  std::vector<int> hits(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hits[u.sample(r)];
  EXPECT_NEAR(hits[0], n * 0.1, 400);
  EXPECT_NEAR(hits[1], n * 0.3, 600);
  EXPECT_EQ(hits[2], 0);
  EXPECT_NEAR(hits[3], n * 0.6, 700);
}

TEST_P(UrnEngineSweep, SamplingAfterUpdatesUsesNewWeights) {
  std::vector<std::uint64_t> counts{1, 0};
  urn::Urn u(counts, GetParam());
  u.add(1, 99);
  u.add(0, -1);
  rng::Rng r(73);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(u.sample(r), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, UrnEngineSweep,
                         ::testing::Values(urn::UrnEngine::kLinear,
                                           urn::UrnEngine::kFenwick));

}  // namespace
}  // namespace kusd
