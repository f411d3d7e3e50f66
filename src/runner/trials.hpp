// Parallel Monte-Carlo trial runner.
//
// Every trial gets a deterministic, independent seed derived from
// (master_seed, trial_index), so experiment output is reproducible
// regardless of thread scheduling or thread count: results are collected
// by index.
//
// The batch runs as a one-item TaskGraph whose stripes are *contiguous*
// trial ranges pulled by workers from a shared cursor, cut by the same
// grain rule (runner::stripes_per_item) as runner::Sweep's (point,
// stripe) units: a lone item spreads over every worker.
// Striping is pure scheduling: seeds depend only on the trial index,
// never the stripe.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "rng/rng.hpp"
#include "runner/task_graph.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace kusd::runner {

/// Run `trials` independent invocations of fn(seed) on an existing (idle)
/// pool and return the results of type T in trial order. Rejects negative
/// `trials`. Trials are striped over stripes_per_item work units, each
/// holding `fn` by reference, so the callable is never type-erased or
/// copied — a lambda with a fat capture list costs the same as a function
/// pointer, and the per-trial call inlines. If a trial throws, the first
/// exception propagates out (workers stop claiming new stripes; the
/// result vector is abandoned).
template <typename T, typename Fn>
std::vector<T> run_trials(util::ThreadPool& pool, int trials,
                          std::uint64_t master_seed, Fn&& fn) {
  KUSD_CHECK_MSG(trials >= 0, "run_trials: negative trial count");
  std::vector<T> results(static_cast<std::size_t>(trials));
  if (trials == 0) return results;
  const auto n = static_cast<std::size_t>(trials);
  const std::uint32_t stripes = stripes_per_item(n, 1, pool.num_threads());
  const TaskGraph graph({stripes});
  graph.run(
      pool,
      [&results, &fn, master_seed, n, stripes](const TaskUnit& unit) {
        const auto [begin, end] = stripe_trials(n, stripes, unit.stripe);
        for (std::size_t i = begin; i < end; ++i) {
          results[i] = fn(rng::stream_seed(master_seed, i));
        }
      },
      [](std::size_t) {});
  return results;
}

/// Same, with a pool of `threads` workers created for this batch.
template <typename T, typename Fn>
std::vector<T> run_trials(int trials, std::uint64_t master_seed, Fn&& fn,
                          std::size_t threads = 0) {
  KUSD_CHECK_MSG(trials >= 0, "run_trials: negative trial count");
  util::ThreadPool pool(threads);
  return run_trials<T>(pool, trials, master_seed, std::forward<Fn>(fn));
}

/// Convenience wrapper: run trials producing a double metric and collect
/// them into a Samples.
stats::Samples run_trials_samples(
    int trials, std::uint64_t master_seed,
    const std::function<double(std::uint64_t)>& fn, std::size_t threads = 0);

}  // namespace kusd::runner
