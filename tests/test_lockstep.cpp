// batched-lockstep's many-trial entry point (EngineInfo::lockstep):
// per-seed bit-identity with the batched registry engine, batch-composition
// independence, exact budget landing, and sweep-level byte determinism of
// the batched-lockstep registry engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/budget.hpp"
#include "core/chunk_controller.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "runner/sweep.hpp"
#include "sim/registry.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

using core::ChunkOptions;
using core::ChunkPolicy;
using pp::Configuration;
using sim::LockstepTrialResult;

std::vector<std::uint64_t> seeds_for(std::uint64_t base, std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t t = 0; t < count; ++t) {
    seeds[t] = rng::stream_seed(base, static_cast<std::uint64_t>(t));
  }
  return seeds;
}

std::uint64_t default_budget(const Configuration& x0) {
  return core::default_interaction_cap(x0.n(), x0.k());
}

std::vector<LockstepTrialResult> run_lockstep(
    const Configuration& x0, std::span<const std::uint64_t> seeds,
    const ChunkOptions& options, std::uint64_t budget) {
  const sim::EngineInfo* info =
      sim::Registry::instance().find("batched-lockstep");
  EXPECT_NE(info, nullptr);
  EXPECT_TRUE(info->lockstep);
  sim::EngineOptions engine_options;
  engine_options.batch = options;
  return info->lockstep(x0, seeds, engine_options, budget);
}

void expect_same_trial(const LockstepTrialResult& a,
                       const LockstepTrialResult& b, std::size_t t) {
  EXPECT_EQ(a.converged, b.converged) << "trial " << t;
  EXPECT_EQ(a.winner, b.winner) << "trial " << t;
  EXPECT_EQ(a.parallel_time, b.parallel_time) << "trial " << t;
}

/// Trial t of a lockstep batch is bit-for-bit the `batched` registry
/// engine run with seeds[t] under the same options and budget.
void expect_bit_identical_to_batched(const Configuration& x0,
                                     const ChunkOptions& options,
                                     std::uint64_t seed_base,
                                     std::size_t trials) {
  const auto seeds = seeds_for(seed_base, trials);
  const std::uint64_t budget = default_budget(x0);
  const auto results = run_lockstep(x0, seeds, options, budget);
  ASSERT_EQ(results.size(), trials);
  sim::EngineOptions engine_options;
  engine_options.batch = options;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto engine =
        sim::Registry::instance().create("batched", x0, seeds[t],
                                         engine_options);
    ASSERT_TRUE(engine->run_to_consensus(budget)) << "trial " << t;
    EXPECT_TRUE(results[t].converged) << "trial " << t;
    EXPECT_EQ(results[t].winner, engine->consensus_opinion())
        << "trial " << t;
    EXPECT_EQ(results[t].parallel_time, engine->parallel_time())
        << "trial " << t;
  }
}

TEST(Lockstep, BitIdenticalToScalarFixedChunks) {
  expect_bit_identical_to_batched(Configuration::uniform(3000, 4, 300),
                                  ChunkOptions{}, 801, 8);
}

TEST(Lockstep, BitIdenticalToScalarAdaptiveChunks) {
  expect_bit_identical_to_batched(
      Configuration::uniform(3000, 4, 300),
      ChunkOptions{.policy = ChunkPolicy::kAdaptive}, 802, 8);
}

TEST(Lockstep, BitIdenticalToScalarWithBiasedStart) {
  expect_bit_identical_to_batched(
      Configuration({2600, 2000, 1400}, 1000),
      ChunkOptions{.policy = ChunkPolicy::kAdaptive}, 803, 6);
}

TEST(Lockstep, BatchCompositionDoesNotChangeAnyStream) {
  // A trial's result depends only on its own seed: running it alone must
  // equal running it inside a batch of seven.
  const auto x0 = Configuration::uniform(2000, 3, 200);
  const auto seeds = seeds_for(804, 7);
  const std::uint64_t budget = default_budget(x0);
  const auto batch = run_lockstep(x0, seeds, ChunkOptions{}, budget);
  ASSERT_EQ(batch.size(), seeds.size());
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    const auto solo = run_lockstep(
        x0, std::span<const std::uint64_t>(&seeds[t], 1), ChunkOptions{},
        budget);
    ASSERT_EQ(solo.size(), 1u);
    expect_same_trial(batch[t], solo[0], t);
  }
}

TEST(Lockstep, RepeatedRunsAreDeterministic) {
  const auto x0 = Configuration::uniform(2500, 3, 0);
  const auto seeds = seeds_for(805, 5);
  const std::uint64_t budget = default_budget(x0);
  const auto a = run_lockstep(x0, seeds, ChunkOptions{}, budget);
  const auto b = run_lockstep(x0, seeds, ChunkOptions{}, budget);
  ASSERT_EQ(a.size(), seeds.size());
  ASSERT_EQ(b.size(), seeds.size());
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    EXPECT_TRUE(a[t].converged) << "trial " << t;
    expect_same_trial(a[t], b[t], t);
  }
}

TEST(Lockstep, PartialAdvanceLandsExactlyOnTarget) {
  // Chunks are clamped to the budget: a trial still running when it runs
  // out stops at exactly budget interactions, never past it.
  const auto x0 = Configuration::uniform(5000, 4, 500);
  const auto seeds = seeds_for(806, 6);
  const std::uint64_t budget = 2000;
  const auto results = run_lockstep(x0, seeds, ChunkOptions{}, budget);
  ASSERT_EQ(results.size(), seeds.size());
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    EXPECT_FALSE(results[t].converged) << "trial " << t;
    EXPECT_EQ(results[t].winner, -1) << "trial " << t;
    EXPECT_EQ(results[t].parallel_time,
              static_cast<double>(budget) / static_cast<double>(x0.n()))
        << "trial " << t;
  }
}

TEST(Lockstep, FinishedTrialsAreMaskedOut) {
  // A budget that some trials beat and others do not: every trial, the
  // finished and the stopped alike, equals the `batched` engine run with
  // its seed under that budget, and a straggler stops at the budget.
  const auto x0 = Configuration::uniform(600, 2, 0);
  const auto seeds = seeds_for(807, 12);
  const auto uncapped =
      run_lockstep(x0, seeds, ChunkOptions{}, default_budget(x0));
  std::vector<double> times;
  for (const auto& r : uncapped) {
    ASSERT_TRUE(r.converged);
    times.push_back(r.parallel_time);
  }
  std::sort(times.begin(), times.end());
  ASSERT_LT(times.front(), times.back());
  // Halfway between the fastest and the slowest trial.
  const auto budget = static_cast<std::uint64_t>(
      (times.front() + times.back()) / 2.0 * static_cast<double>(x0.n()));
  const auto capped = run_lockstep(x0, seeds, ChunkOptions{}, budget);
  ASSERT_EQ(capped.size(), seeds.size());
  std::size_t finished = 0;
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    const auto engine = sim::Registry::instance().create("batched", x0,
                                                         seeds[t]);
    engine->run_to_consensus(budget);
    const LockstepTrialResult alone{
        .parallel_time = engine->parallel_time(),
        .converged = engine->is_consensus(),
        .winner = engine->is_consensus() ? engine->consensus_opinion() : -1};
    expect_same_trial(capped[t], alone, t);
    if (capped[t].converged) {
      ++finished;
    } else {
      EXPECT_EQ(capped[t].parallel_time,
                static_cast<double>(budget) / static_cast<double>(x0.n()))
          << "trial " << t;
    }
  }
  EXPECT_GT(finished, 0u);
  EXPECT_LT(finished, seeds.size());
}

TEST(Lockstep, RejectsEmptyBatchAndAllUndecidedStart) {
  const auto x0 = Configuration::uniform(100, 2, 0);
  const std::vector<std::uint64_t> none;
  EXPECT_THROW(
      (void)run_lockstep(x0, none, ChunkOptions{}, default_budget(x0)),
      util::CheckError);
  const auto all_undecided = Configuration({0, 0}, 50);
  const auto seeds = seeds_for(808, 2);
  EXPECT_THROW((void)run_lockstep(all_undecided, seeds, ChunkOptions{},
                                  default_budget(x0)),
               util::CheckError);
}

TEST(Lockstep, RegistryEngineMatchesBatchedEngine) {
  // The batched-lockstep registry entry (a batch of one) must replay the
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
  // registry's single-trial engine, with seeds derived from (point,
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
  // (only the engine name differs), because the one-trial engine replays
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
