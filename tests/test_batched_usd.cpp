// BatchedUsdSimulator: invariants, API parity with UsdSimulator, and the
// property that chunked Poissonization matches the exact asynchronous
// chain in distribution.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/batched_usd.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "runner/run.hpp"
#include "sim/registry.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using core::ChunkOptions;
using core::BatchedUsdSimulator;
using core::StepMode;
using core::UsdOptions;
using core::UsdSimulator;
using pp::Configuration;

std::uint64_t population(const BatchedUsdSimulator& sim) {
  std::uint64_t total = sim.undecided();
  for (auto c : sim.opinions()) total += c;
  return total;
}

TEST(BatchedUsd, ConservesPopulationEveryChunk) {
  BatchedUsdSimulator sim(Configuration::uniform(10000, 4, 1000),
                          rng::Rng(1));
  for (int i = 0; i < 2000 && !sim.is_consensus(); ++i) {
    sim.step();
    ASSERT_EQ(population(sim), 10000u);
  }
}

TEST(BatchedUsd, InteractionsIncreaseMonotonically) {
  BatchedUsdSimulator sim(Configuration::uniform(5000, 3, 0), rng::Rng(2));
  std::uint64_t prev = 0;
  for (int i = 0; i < 500 && !sim.is_consensus(); ++i) {
    sim.step();
    ASSERT_GT(sim.interactions(), prev);
    prev = sim.interactions();
  }
}

TEST(BatchedUsd, ReachesConsensusAndDetectsIt) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    BatchedUsdSimulator sim(Configuration::uniform(2000, 2, 0),
                            rng::Rng(seed));
    ASSERT_TRUE(sim.run_to_consensus(~std::uint64_t{0}));
    const int w = sim.consensus_opinion();
    ASSERT_TRUE(w == 0 || w == 1);
    EXPECT_EQ(sim.opinion(w), 2000u);
    EXPECT_EQ(sim.undecided(), 0u);
  }
}

TEST(BatchedUsd, OverwhelmingBiasWins) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    BatchedUsdSimulator sim(Configuration({90000, 5000, 5000}, 0),
                            rng::Rng(seed));
    ASSERT_TRUE(sim.run_to_consensus(~std::uint64_t{0}));
    EXPECT_EQ(sim.consensus_opinion(), 0) << "seed " << seed;
  }
}

TEST(BatchedUsd, DeterministicForSameSeed) {
  const auto x0 = Configuration::uniform(5000, 5, 500);
  BatchedUsdSimulator a(x0, rng::Rng(7)), b(x0, rng::Rng(7));
  a.run_to_consensus(~std::uint64_t{0});
  b.run_to_consensus(~std::uint64_t{0});
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_EQ(a.chunks(), b.chunks());
  EXPECT_EQ(a.consensus_opinion(), b.consensus_opinion());
}

TEST(BatchedUsd, HonorsInteractionCap) {
  BatchedUsdSimulator sim(Configuration::uniform(100000, 8, 0), rng::Rng(8));
  EXPECT_FALSE(sim.run_to_consensus(1000));
  EXPECT_GE(sim.interactions(), 1000u);
}

TEST(BatchedUsd, DetectsPreexistingConsensus) {
  BatchedUsdSimulator sim(Configuration({500, 0}, 0), rng::Rng(9));
  EXPECT_TRUE(sim.is_consensus());
  EXPECT_TRUE(sim.run_to_consensus(10));
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(BatchedUsd, RejectsAllUndecidedAndBadChunk) {
  EXPECT_THROW(BatchedUsdSimulator(Configuration({0, 0}, 10), rng::Rng(10)),
               util::CheckError);
  EXPECT_THROW(BatchedUsdSimulator(Configuration::uniform(100, 2, 0),
                                   rng::Rng(11), ChunkOptions{.chunk_fraction = 0.0}),
               util::CheckError);
  EXPECT_THROW(BatchedUsdSimulator(Configuration::uniform(100, 2, 0),
                                   rng::Rng(11), ChunkOptions{.chunk_fraction = 1.5}),
               util::CheckError);
}

TEST(BatchedUsd, SupportsPopulationsBeyond32Bits) {
  // UsdSimulator caps n below 2^32; the batched engine must not.
  const pp::Count n = (std::uint64_t{1} << 32) + 10;
  BatchedUsdSimulator sim(Configuration::two_opinion(n, n / 2, 0),
                          rng::Rng(13));
  sim.step();
  EXPECT_EQ(population(sim), n);
  EXPECT_THROW(UsdSimulator(Configuration::two_opinion(n, n / 2, 0),
                            rng::Rng(13)),
               util::CheckError);
}

TEST(BatchedUsd, TinyPopulationsTerminate) {
  // Regression: with whole-population chunks, a draw flipping every
  // decided agent used to commit the absorbing all-undecided state and
  // run_to_consensus would spin forever. Rejection + halving reduces to
  // the exact m = 1 case, which always converges.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    BatchedUsdSimulator sim(Configuration({1, 1}, 0), rng::Rng(seed),
                            ChunkOptions{.chunk_fraction = 1.0});
    ASSERT_TRUE(sim.run_to_consensus(~std::uint64_t{0}));
    EXPECT_EQ(sim.undecided(), 0u);
  }
}

TEST(BatchedUsd, RunObservedFiresExactlyAtIntervalMultiples) {
  // Regression: the observer used to fire at the first chunk boundary
  // *past* each interval multiple (a chunk of 2% of n could overshoot the
  // boundary by the whole chunk). The `batched` engine clamps chunks so
  // every multiple is hit exactly, under both chunk policies.
  for (const auto policy :
       {core::ChunkPolicy::kFixed, core::ChunkPolicy::kAdaptive}) {
    sim::EngineOptions options;
    options.batch.policy = policy;
    const auto engine = sim::Registry::instance().create(
        "batched", Configuration::uniform(20000, 3, 0), 15, options);
    const std::uint64_t interval = 1500;
    std::vector<std::uint64_t> times;
    engine->run_observed(10'000'000, interval,
                         [&times](std::uint64_t t, std::span<const pp::Count>,
                                  pp::Count) { times.push_back(t); });
    ASSERT_GE(times.size(), 4u);
    EXPECT_EQ(times.front(), 0u);
    // Every observation but the last is an exact multiple, consecutive
    // (no multiple skipped), and the final call reports the end state.
    for (std::size_t i = 1; i + 1 < times.size(); ++i) {
      EXPECT_EQ(times[i], i * interval) << "policy "
                                        << core::to_string(policy);
    }
    EXPECT_EQ(times.back(), engine->elapsed());
  }
}

TEST(BatchedUsd, RunObservedNeverOvershootsTheCap) {
  const auto engine = sim::Registry::instance().create(
      "batched", Configuration::uniform(100000, 8, 0), 16);
  const std::uint64_t cap = 12345;
  engine->run_observed(
      cap, 1000, [](std::uint64_t, std::span<const pp::Count>, pp::Count) {});
  EXPECT_LE(engine->elapsed(), cap);
}

TEST(BatchedUsd, RunUsdDispatchesBatchedMode) {
  runner::RunOptions opts;
  opts.engine = "batched";
  const auto result =
      runner::run_usd(Configuration::uniform(20000, 4, 0), 77, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.winner, 0);
  EXPECT_GT(result.parallel_time, 0.0);
}

// ---- Approximation-quality property tests ----

std::vector<double> exact_times(const Configuration& x0, int trials,
                                std::uint64_t seed_base) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    UsdSimulator sim(
        x0, rng::Rng(rng::stream_seed(seed_base,
                                        static_cast<std::uint64_t>(t))),
        UsdOptions{StepMode::kEveryInteraction});
    EXPECT_TRUE(sim.run_to_consensus(100'000'000));
    out.push_back(static_cast<double>(sim.interactions()));
  }
  return out;
}

std::vector<double> batched_times(const Configuration& x0, int trials,
                                  std::uint64_t seed_base,
                                  double chunk_fraction) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    BatchedUsdSimulator sim(
        x0, rng::Rng(rng::stream_seed(seed_base,
                                        static_cast<std::uint64_t>(t))),
        ChunkOptions{.chunk_fraction = chunk_fraction});
    EXPECT_TRUE(sim.run_to_consensus(100'000'000));
    out.push_back(static_cast<double>(sim.interactions()));
  }
  return out;
}

TEST(BatchedUsd, SingleInteractionChunksMatchExactChainInDistribution) {
  // chunk_fraction -> 1/n degenerates to one event per draw: the batched
  // engine then samples the exact chain and must match kEveryInteraction.
  const auto x0 = Configuration::uniform(150, 3, 30);
  const int trials = 350;
  const auto exact = exact_times(x0, trials, 2100);
  const auto batched = batched_times(x0, trials, 2101, 1e-9);
  EXPECT_LT(stats::ks_statistic(exact, batched),
            stats::ks_threshold(exact.size(), batched.size(), 0.001));
}

TEST(BatchedUsd, DefaultChunkMatchesExactChainInDistribution) {
  // The default chunk (2% of n per draw) must keep the tau-leap bias below
  // KS detectability at property-test sample sizes.
  const auto x0 = Configuration::uniform(400, 3, 0);
  const int trials = 350;
  const auto exact = exact_times(x0, trials, 2200);
  const auto batched =
      batched_times(x0, trials, 2201, ChunkOptions{}.chunk_fraction);
  EXPECT_LT(stats::ks_statistic(exact, batched),
            stats::ks_threshold(exact.size(), batched.size(), 0.001));
}

TEST(BatchedUsd, WinnerFrequenciesMatchExactChain) {
  const auto x0 = Configuration::two_opinion(500, 260, 0);  // mild bias
  const int trials = 1500;
  int wins_exact = 0, wins_batched = 0;
  for (int t = 0; t < trials; ++t) {
    UsdSimulator a(x0, rng::Rng(rng::stream_seed(2300, t)),
                   UsdOptions{StepMode::kSkipUnproductive});
    ASSERT_TRUE(a.run_to_consensus(100'000'000));
    wins_exact += a.consensus_opinion() == 0 ? 1 : 0;
    BatchedUsdSimulator b(x0, rng::Rng(rng::stream_seed(2301, t)));
    ASSERT_TRUE(b.run_to_consensus(100'000'000));
    wins_batched += b.consensus_opinion() == 0 ? 1 : 0;
  }
  const double f_exact = static_cast<double>(wins_exact) / trials;
  const double f_batched = static_cast<double>(wins_batched) / trials;
  EXPECT_NEAR(f_exact, f_batched, 0.05);  // ~4 sigma of the difference
}

}  // namespace
}  // namespace kusd
