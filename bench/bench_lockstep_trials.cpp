// E18 — lockstep many-trial kernel: trial batches through one SoA engine.
//
// The lockstep kernel advances a whole trial batch through one
// structure-of-arrays tau-leap: one weight pass and one batched-binomial
// call per event family per chunk, with finished trials masked out of
// the active set.
//
//  1. Trial throughput at n = 10^8, k = 32 (adaptive chunks): seconds
//     per trial, lockstep vs the scalar engine run trial-by-trial in
//     this process.
//  2. Bit-identity audit: every lockstep trial must equal the scalar
//     engine under the same seed (interactions, chunk count, winner).
//  3. KS fidelity at property-test scale: lockstep consensus times vs
//     the exact asynchronous chain, alpha = 0.001.
//
// Results land in BENCH_lockstep.json. Wall-clock numbers here are
// single-threaded by construction (the kernel batches draws, it does
// not spawn threads), and both sides are timed in the same process.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "core/batched_usd.hpp"
#include "core/lockstep_usd.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "util/stopwatch.hpp"

using namespace kusd;

namespace {

constexpr std::uint64_t kNoCap = ~std::uint64_t{0};

std::vector<double> exact_times(const pp::Configuration& x0, int trials,
                                std::uint64_t seed_base) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    core::UsdSimulator sim(
        x0,
        rng::Rng(rng::stream_seed(seed_base, static_cast<std::uint64_t>(t))),
        core::UsdOptions{core::StepMode::kEveryInteraction});
    sim.run_to_consensus(kNoCap);
    out.push_back(static_cast<double>(sim.interactions()));
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("E18", "lockstep many-trial kernel",
                "Structure-of-arrays tau-leaping: one batched-binomial "
                "draw per event family advances every unfinished trial "
                "at once, amortizing per-draw dispatch across the "
                "batch.");

  core::ChunkOptions adaptive;
  adaptive.policy = core::ChunkPolicy::kAdaptive;

  // ---- Part 1: trial throughput at n = 1e8, k = 32 ----
  bool bit_identical = true;
  double scalar_per_trial = 0.0, lockstep_per_trial = 0.0;
  const pp::Count n = runner::scaled(100'000'000);
  const int k = 32;
  const std::size_t trials = 10;
  {
    const auto x0 = pp::Configuration::uniform(n, k, 0);
    const auto seeds = bench::stream_seeds(0xE18, trials);
    const int reps = 5;

    std::vector<std::uint64_t> scalar_interactions(trials),
        scalar_chunks(trials);
    std::vector<int> scalar_winner(trials);
    const double scalar_seconds = bench::min_seconds_over(reps, [&] {
      for (std::size_t t = 0; t < trials; ++t) {
        core::BatchedUsdSimulator sim(x0, rng::Rng(seeds[t]), adaptive);
        sim.run_to_consensus(kNoCap);
        scalar_interactions[t] = sim.interactions();
        scalar_chunks[t] = sim.chunks();
        scalar_winner[t] = sim.consensus_opinion();
      }
    });

    const double lockstep_seconds = bench::min_seconds_over(reps, [&] {
      core::LockstepRoundEngine kernel(x0, seeds, adaptive);
      kernel.advance_all(kNoCap);

      // ---- Part 2: bit-identity audit against the scalar runs ----
      for (std::size_t t = 0; t < trials; ++t) {
        bit_identical = bit_identical &&
                        kernel.interactions(t) == scalar_interactions[t] &&
                        kernel.chunks(t) == scalar_chunks[t] &&
                        kernel.is_consensus(t) &&
                        kernel.consensus_opinion(t) == scalar_winner[t];
      }
    });

    scalar_per_trial = scalar_seconds / static_cast<double>(trials);
    lockstep_per_trial = lockstep_seconds / static_cast<double>(trials);
    const double vs_scalar =
        scalar_per_trial / std::max(lockstep_per_trial, 1e-12);

    runner::Table table(
        {"engine", "trials", "seconds", "s/trial", "speedup"});
    table.add_row({"scalar loop", runner::fmt_int(trials),
                   runner::fmt(scalar_seconds, 4),
                   runner::fmt(scalar_per_trial, 5), "1.0"});
    table.add_row({"lockstep", runner::fmt_int(trials),
                   runner::fmt(lockstep_seconds, 4),
                   runner::fmt(lockstep_per_trial, 5),
                   runner::fmt(vs_scalar, 1)});
    table.print();
    std::printf("bit-identical to scalar engine: %s\n\n",
                bit_identical ? "yes" : "NO");
  }

  // ---- Part 3: KS fidelity at property-test scale ----
  const auto x_small = pp::Configuration::uniform(400, 3, 0);
  const int ks_trials = runner::scaled_trials(350, 60);
  const auto exact = exact_times(x_small, ks_trials, 0xE18B);
  const auto ks_seeds =
      bench::stream_seeds(0xE18C, static_cast<std::size_t>(ks_trials));
  core::LockstepRoundEngine small_kernel(x_small, ks_seeds,
                                         core::ChunkOptions{});
  small_kernel.advance_all(kNoCap);
  std::vector<double> lockstep_times;
  lockstep_times.reserve(ks_seeds.size());
  for (std::size_t t = 0; t < ks_seeds.size(); ++t) {
    lockstep_times.push_back(static_cast<double>(small_kernel.interactions(t)));
  }
  const double threshold =
      stats::ks_threshold(exact.size(), lockstep_times.size(), 0.001);
  const double ks = stats::ks_statistic(exact, lockstep_times);
  std::printf("KS vs exact chain at n=400 (threshold %.4f, %d trials): "
              "%.4f %s\n\n",
              threshold, ks_trials, ks, ks < threshold ? "pass" : "FAIL");

  const double vs_scalar =
      scalar_per_trial / std::max(lockstep_per_trial, 1e-12);
  bench::JsonResult json;
  json.add_string("bench", "bench_lockstep_trials/throughput");
  json.add("repro_scale", runner::repro_scale());
  json.add("n", static_cast<std::uint64_t>(n));
  json.add("k", k);
  json.add("trials", static_cast<std::uint64_t>(trials));
  json.add("scalar_seconds_per_trial", scalar_per_trial);
  json.add("lockstep_seconds_per_trial", lockstep_per_trial);
  json.add("speedup_vs_scalar", vs_scalar);
  json.add_bool("bit_identical_to_scalar", bit_identical);
  json.add("ks_trials", ks_trials);
  json.add("ks_threshold", threshold);
  json.add("ks_lockstep_vs_exact", ks);
  json.add_bool("ks_pass", ks < threshold);
  const bool json_ok = json.write("BENCH_lockstep.json");
  std::printf("wrote BENCH_lockstep.json\n");
  return json_ok && bit_identical && ks < threshold ? 0 : 1;
}
