// LockstepRoundEngine: per-stream bit-identity with the scalar batched
// engine, batch-composition independence, masking near consensus, KS
// fidelity against the exact chain, and sweep-level byte determinism of
// the batched-lockstep registry engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/batched_usd.hpp"
#include "core/lockstep_usd.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "runner/sweep.hpp"
#include "sim/registry.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using core::BatchedOptions;
using core::BatchedUsdSimulator;
using core::ChunkOptions;
using core::ChunkPolicy;
using core::LockstepRoundEngine;
using core::StepMode;
using core::UsdOptions;
using core::UsdSimulator;
using pp::Configuration;

constexpr std::uint64_t kNoCap = ~std::uint64_t{0};

std::vector<std::uint64_t> seeds_for(std::uint64_t base, std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t t = 0; t < count; ++t) {
    seeds[t] = rng::stream_seed(base, static_cast<std::uint64_t>(t));
  }
  return seeds;
}

/// The tentpole contract: trial t of a lockstep batch is bit-for-bit the
/// scalar BatchedUsdSimulator run with seeds[t] — same interactions, same
/// chunk count (including halved retries), same winner, same final
/// counts.
void expect_bit_identical_to_scalar(const Configuration& x0,
                                    const ChunkOptions& options,
                                    std::uint64_t seed_base,
                                    std::size_t trials) {
  const auto seeds = seeds_for(seed_base, trials);
  LockstepRoundEngine lockstep(x0, seeds, options);
  lockstep.advance_all(kNoCap);
  for (std::size_t t = 0; t < trials; ++t) {
    BatchedUsdSimulator scalar(x0, rng::Rng(seeds[t]), options);
    ASSERT_TRUE(scalar.run_to_consensus(kNoCap)) << "trial " << t;
    ASSERT_TRUE(lockstep.is_consensus(t)) << "trial " << t;
    EXPECT_EQ(lockstep.interactions(t), scalar.interactions())
        << "trial " << t;
    EXPECT_EQ(lockstep.chunks(t), scalar.chunks()) << "trial " << t;
    EXPECT_EQ(lockstep.consensus_opinion(t), scalar.consensus_opinion())
        << "trial " << t;
    const auto counts = lockstep.counts(t);
    for (int j = 0; j < x0.k(); ++j) {
      EXPECT_EQ(counts[static_cast<std::size_t>(j)], scalar.opinion(j))
          << "trial " << t << " opinion " << j;
    }
    EXPECT_EQ(lockstep.undecided(t), scalar.undecided()) << "trial " << t;
  }
}

TEST(Lockstep, BitIdenticalToScalarFixedChunks) {
  expect_bit_identical_to_scalar(Configuration::uniform(3000, 4, 300),
                                 ChunkOptions{}, 801, 8);
}

TEST(Lockstep, BitIdenticalToScalarAdaptiveChunks) {
  expect_bit_identical_to_scalar(
      Configuration::uniform(3000, 4, 300),
      ChunkOptions{.policy = ChunkPolicy::kAdaptive}, 802, 8);
}

TEST(Lockstep, BitIdenticalToScalarWithBiasedStart) {
  expect_bit_identical_to_scalar(
      Configuration({2600, 2000, 1400}, 1000),
      ChunkOptions{.policy = ChunkPolicy::kAdaptive}, 803, 6);
}

TEST(Lockstep, BatchCompositionDoesNotChangeAnyStream) {
  // A trial's draw sequence depends only on its own seed: running it
  // alone must equal running it shoulder-to-shoulder with six others.
  const auto x0 = Configuration::uniform(2000, 3, 200);
  const auto seeds = seeds_for(804, 7);
  LockstepRoundEngine batch(x0, seeds, ChunkOptions{});
  batch.advance_all(kNoCap);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    LockstepRoundEngine solo(
        x0, std::span<const std::uint64_t>(&seeds[t], 1), ChunkOptions{});
    solo.advance_all(kNoCap);
    EXPECT_EQ(batch.interactions(t), solo.interactions(0)) << "trial " << t;
    EXPECT_EQ(batch.chunks(t), solo.chunks(0)) << "trial " << t;
    EXPECT_EQ(batch.consensus_opinion(t), solo.consensus_opinion(0))
        << "trial " << t;
  }
}

TEST(Lockstep, RepeatedRunsAreDeterministic) {
  const auto x0 = Configuration::uniform(2500, 3, 0);
  const auto seeds = seeds_for(805, 5);
  LockstepRoundEngine a(x0, seeds, ChunkOptions{});
  LockstepRoundEngine b(x0, seeds, ChunkOptions{});
  a.advance_all(kNoCap);
  b.advance_all(kNoCap);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    EXPECT_EQ(a.interactions(t), b.interactions(t));
    EXPECT_EQ(a.chunks(t), b.chunks(t));
    EXPECT_EQ(a.consensus_opinion(t), b.consensus_opinion(t));
  }
}

TEST(Lockstep, PartialAdvanceLandsExactlyOnTarget) {
  // Chunks are clamped so every still-running trial stops at exactly the
  // interaction target, never past it.
  const auto x0 = Configuration::uniform(5000, 4, 500);
  const auto seeds = seeds_for(806, 6);
  LockstepRoundEngine kernel(x0, seeds, ChunkOptions{});
  const std::uint64_t target = 2000;
  kernel.advance_all(target);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    EXPECT_LE(kernel.interactions(t), target);
    if (!kernel.is_consensus(t)) {
      EXPECT_EQ(kernel.interactions(t), target) << "trial " << t;
    }
  }
}

TEST(Lockstep, FinishedTrialsAreMaskedOut) {
  // Once a trial reaches consensus it is frozen: further advance_all
  // calls must not move its interaction clock or its counts, while the
  // stragglers keep running.
  const auto x0 = Configuration::uniform(600, 2, 0);
  const auto seeds = seeds_for(807, 12);
  LockstepRoundEngine kernel(x0, seeds, ChunkOptions{});
  // Step in small increments until at least one trial has finished while
  // another is still running — the mixed regime masking must handle.
  std::uint64_t target = 0;
  while (kernel.unfinished() == seeds.size() && target < 100'000'000) {
    target += 600;
    kernel.advance_all(target);
  }
  ASSERT_LT(kernel.unfinished(), seeds.size());
  std::vector<bool> was_done(seeds.size());
  std::vector<std::uint64_t> snapshot_interactions(seeds.size());
  std::vector<std::vector<pp::Count>> snapshot_counts(seeds.size());
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    was_done[t] = kernel.is_consensus(t);
    snapshot_interactions[t] = kernel.interactions(t);
    const auto counts = kernel.counts(t);
    snapshot_counts[t].assign(counts.begin(), counts.end());
  }
  kernel.advance_all(kNoCap);
  EXPECT_EQ(kernel.unfinished(), 0u);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    if (!was_done[t]) continue;
    EXPECT_EQ(kernel.interactions(t), snapshot_interactions[t])
        << "trial " << t;
    const auto counts = kernel.counts(t);
    for (int j = 0; j < x0.k(); ++j) {
      EXPECT_EQ(counts[static_cast<std::size_t>(j)],
                snapshot_counts[t][static_cast<std::size_t>(j)])
          << "trial " << t << " opinion " << j;
    }
  }
}

TEST(Lockstep, RejectsEmptyBatchAndAllUndecidedStart) {
  const auto x0 = Configuration::uniform(100, 2, 0);
  const std::vector<std::uint64_t> none;
  EXPECT_THROW(LockstepRoundEngine(x0, none, ChunkOptions{}),
               util::CheckError);
  const auto all_undecided = Configuration({0, 0}, 50);
  const auto seeds = seeds_for(808, 2);
  EXPECT_THROW(LockstepRoundEngine(all_undecided, seeds, ChunkOptions{}),
               util::CheckError);
}

TEST(Lockstep, ConsensusTimesMatchExactChainInDistribution) {
  // Same KS bar the scalar batched engine clears: lockstep tau-leap
  // consensus times vs the exact asynchronous chain, alpha = 0.001.
  const auto x0 = Configuration::uniform(400, 3, 0);
  const int trials = 350;
  std::vector<double> exact;
  exact.reserve(trials);
  for (int t = 0; t < trials; ++t) {
    UsdSimulator sim(
        x0,
        rng::Rng(rng::stream_seed(2400, static_cast<std::uint64_t>(t))),
        UsdOptions{StepMode::kEveryInteraction});
    ASSERT_TRUE(sim.run_to_consensus(100'000'000));
    exact.push_back(static_cast<double>(sim.interactions()));
  }
  const auto seeds = seeds_for(2401, static_cast<std::size_t>(trials));
  LockstepRoundEngine kernel(x0, seeds, ChunkOptions{});
  kernel.advance_all(kNoCap);
  std::vector<double> lockstep;
  lockstep.reserve(trials);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    ASSERT_TRUE(kernel.is_consensus(t));
    lockstep.push_back(static_cast<double>(kernel.interactions(t)));
  }
  EXPECT_LT(stats::ks_statistic(exact, lockstep),
            stats::ks_threshold(exact.size(), lockstep.size(), 0.001));
}

TEST(Lockstep, RegistryEngineMatchesBatchedEngine) {
  // The batched-lockstep Engine adapter (a batch of one) must replay the
  // plain batched engine bit for bit under the same seed and options.
  const auto x0 = Configuration::uniform(2000, 3, 200);
  auto& registry = sim::Registry::instance();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto scalar = registry.create("batched", x0, seed);
    const auto lockstep = registry.create("batched-lockstep", x0, seed);
    ASSERT_TRUE(scalar->run_to_consensus(scalar->default_budget()));
    ASSERT_TRUE(lockstep->run_to_consensus(lockstep->default_budget()));
    EXPECT_EQ(lockstep->elapsed(), scalar->elapsed()) << "seed " << seed;
    EXPECT_EQ(lockstep->consensus_opinion(), scalar->consensus_opinion())
        << "seed " << seed;
    EXPECT_EQ(lockstep->parallel_time(), scalar->parallel_time())
        << "seed " << seed;
  }
}

/// Render header + streamed rows into one string (byte-identity witness).
std::string render(const runner::Sweep& sweep) {
  std::string out;
  for (const auto& col : runner::Sweep::csv_header()) out += col + ",";
  out += "\n";
  sweep.run([&out](const runner::SweepCell& cell) {
    for (const auto& field : runner::Sweep::csv_row(cell)) {
      out += field + ",";
    }
    out += "\n";
  });
  return out;
}

TEST(Lockstep, SweepOutputIsByteIdenticalAcrossStripesAndThreads) {
  // The sweep runs batched-lockstep one trial at a time through the
  // registry's single-trial adapter, with seeds derived from (point,
  // trial) alone — output cannot depend on thread scheduling or on how
  // trials are cut into stripes.
  runner::SweepSpec spec;
  spec.ns = {400, 900};
  spec.ks = {2, 3};
  spec.engines = {"batched-lockstep"};
  spec.undecided_fraction = 0.1;
  spec.trials = 4;
  spec.master_seed = 77;
  spec.threads = 1;
  const std::string sequential = render(runner::Sweep(spec));
  for (const std::size_t threads : {2u, 6u}) {
    for (const std::size_t width : {1u, 3u, 64u}) {
      spec.threads = threads;
      spec.stripe_width = width;
      EXPECT_EQ(render(runner::Sweep(spec)), sequential)
          << threads << " threads, stripe width " << width;
    }
  }
}

TEST(Lockstep, SweepMatchesScalarBatchedEngineCellForCell) {
  // Per-stream bit-identity lifts to the sweep: the batched-lockstep
  // column of a sweep equals the batched column on every numeric field
  // (only the engine name differs), because the one-trial adapter replays
  // the exact per-trial stream the scalar engine is handed.
  // Two single-engine sweeps so the grid indices — and therefore the
  // per-point and per-trial seeds — line up exactly.
  runner::SweepSpec spec;
  spec.ns = {500};
  spec.ks = {2, 4};
  spec.engines = {"batched"};
  spec.undecided_fraction = 0.2;
  spec.trials = 5;
  spec.master_seed = 91;
  spec.threads = 2;
  const auto collect = [](const runner::SweepSpec& s) {
    std::vector<std::vector<std::string>> rows;
    runner::Sweep(s).run([&rows](const runner::SweepCell& cell) {
      rows.push_back(runner::Sweep::csv_row(cell));
    });
    return rows;
  };
  const auto batched_rows = collect(spec);
  spec.engines = {"batched-lockstep"};
  const auto lockstep_rows = collect(spec);
  const auto header = runner::Sweep::csv_header();
  ASSERT_EQ(batched_rows.size(), 2u);
  ASSERT_EQ(lockstep_rows.size(), batched_rows.size());
  for (std::size_t i = 0; i < batched_rows.size(); ++i) {
    for (std::size_t col = 0; col < header.size(); ++col) {
      if (header[col] == "engine") {
        EXPECT_EQ(batched_rows[i][col], "batched");
        EXPECT_EQ(lockstep_rows[i][col], "batched-lockstep");
        continue;
      }
      EXPECT_EQ(lockstep_rows[i][col], batched_rows[i][col])
          << "row " << i << " column " << header[col];
    }
  }

  // Cutting the 5 trials into sub-width stripes changes only which
  // worker runs which trial, so the rows stay pinned to the same
  // scalar-batched streams.
  spec.stripe_width = 2;
  EXPECT_EQ(collect(spec), lockstep_rows);
  spec.stripe_width = 1;
  EXPECT_EQ(collect(spec), lockstep_rows);
}

}  // namespace
}  // namespace kusd
