// E10 — batched round engine: Θ(n) interactions per O(k) draw.
//
// Two demonstrations of the BatchedUsdSimulator (chunked Poissonization):
//
//  1. Fixed-budget throughput vs StepMode::kEveryInteraction at
//     n = 10^8, k = 32: both engines advance the same interaction budget
//     from the same configuration; the batched engine must be >= 50x
//     faster (it is typically 10^4-10^6 x).
//  2. Full convergence at n = 10^9, k = 64 — a population size the
//     per-interaction engines cannot touch — completing in seconds.
#include <algorithm>
#include <cstdint>

#include "bench_common.hpp"
#include "core/batched_usd.hpp"
#include "core/usd.hpp"
#include "pp/configuration.hpp"
#include "rng/rng.hpp"
#include "util/stopwatch.hpp"

using namespace kusd;

namespace {

double time_plain_budget(const pp::Configuration& x0, std::uint64_t budget,
                         std::uint64_t seed) {
  core::UsdSimulator sim(x0, rng::Rng(seed),
                         core::UsdOptions{core::StepMode::kEveryInteraction});
  util::Stopwatch watch;
  sim.run_to_consensus(budget);
  return watch.seconds();
}

double time_batched_budget(const pp::Configuration& x0, std::uint64_t budget,
                           std::uint64_t seed) {
  core::BatchedUsdSimulator sim(x0, rng::Rng(seed));
  util::Stopwatch watch;
  sim.run_to_consensus(budget);
  return watch.seconds();
}

}  // namespace

int main() {
  bench::banner("E10", "batched round engine",
                "Chunked-multinomial batching advances Theta(n) "
                "interactions in O(k) work: fixed-budget speedup over "
                "kEveryInteraction, then n = 1e9 full convergence.");

  // ---- Part 1: fixed interaction budget, identical work for both ----
  {
    const pp::Count n = runner::scaled(100'000'000);
    const int k = 32;
    const auto x0 = pp::Configuration::uniform(n, k, 0);
    // 2n interactions ~ 2 units of parallel time: enough to be firmly in
    // the steady state, small enough that the plain engine finishes.
    const std::uint64_t budget = 2 * n;

    runner::Table table({"engine", "interactions", "seconds", "speedup"});
    const double plain_s = time_plain_budget(x0, budget, 0xE10);
    const double batched_s = time_batched_budget(x0, budget, 0xE10);
    const double speedup = plain_s / std::max(batched_s, 1e-9);
    table.add_row({"every-interaction", runner::fmt_compact(
                       static_cast<double>(budget)),
                   runner::fmt(plain_s, 4), "1.0"});
    table.add_row({"batched-rounds", runner::fmt_compact(
                       static_cast<double>(budget)),
                   runner::fmt(batched_s, 4), runner::fmt(speedup, 1)});
    table.print();
    std::printf("speedup %s >= 50x target: %s\n\n",
                runner::fmt(speedup, 1).c_str(),
                speedup >= 50.0 ? "yes" : "NO");
  }

  // ---- Part 2: n = 1e9, k = 64, batched engine runs to consensus ----
  {
    const pp::Count n = runner::scaled(1'000'000'000);
    const int k = 64;
    const auto x0 = pp::Configuration::uniform(n, k, 0);
    core::BatchedUsdSimulator sim(x0, rng::Rng(0xE10B));
    util::Stopwatch watch;
    const bool converged =
        sim.run_to_consensus(~std::uint64_t{0});
    const double seconds = watch.seconds();
    runner::Table table(
        {"n", "k", "converged", "parallel time", "chunks", "seconds"});
    table.add_row({runner::fmt_compact(static_cast<double>(n)),
                   std::to_string(k), converged ? "yes" : "no",
                   runner::fmt(static_cast<double>(sim.interactions()) /
                                   static_cast<double>(n),
                               1),
                   runner::fmt_int(sim.chunks()),
                   runner::fmt(seconds, 2)});
    table.print();
  }
  return 0;
}
