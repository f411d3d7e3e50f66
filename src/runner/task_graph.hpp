// Work-stealing task graph over (item, stripe) work units.
//
// A TaskGraph decomposes a batch of heterogeneous items — grid points for
// runner::Sweep, a single trial batch for runner::run_trials — into
// stripes, flattens the stripes into one unit list, and lets pool workers
// *pull* units from a shared atomic cursor instead of receiving a static
// assignment. Pulling over shared state is what keeps a mixed workload
// balanced: a worker that drew a cheap 1-stripe item immediately steals
// the next unit of someone else's 64-stripe item, so the pool never
// idles while any item still has unclaimed stripes. (Static striping —
// the pre-PR-10 sweep — underfilled the pool exactly on such mixed
// grids.)
//
// Grain: both callers cut their items with one rule, stripes_per_item
// below, worked out from the batch itself (trials per item, items,
// workers), so a batch of a few heavy items spreads each item over every
// worker. A stripe owns an even contiguous share of its item's trials
// (stripe_trials).
//
// Determinism contract: the scheduler decides only *where and when* a
// unit runs, never what it computes. Callers derive all randomness from
// (item, stripe) indices, so results are a pure function of the unit id
// regardless of thread count, stripe claiming order, or execution order.
//
// Completion: when the last stripe of an item finishes, `on_item_done`
// fires exactly once for that item, on the worker that finished it.
// Calls to on_item_done for *different* items may race. Serial, in-order
// emission is the optional `emit` hook instead: the thread that called
// run() (otherwise idle until the batch ends) takes the longest prefix of
// items whose on_item_done has returned and calls emit(begin, end) once
// for that whole range, outside any lock and never concurrently with
// itself. The ranges are non-empty and tile [0, items) in order. Workers
// only mark an item done and go back to claiming units, so slow emission
// (file I/O) never stalls the pool; when emission falls behind, the next
// range simply grows, and the emitter can batch its own work (one flush
// per range instead of one per item).
//
// Failure: the first exception thrown by run_stripe or on_item_done wins.
// It is captured by the pool and rethrown from run(); once any unit has
// failed, workers stop claiming new units (in-flight units finish), so a
// poisoned batch is abandoned quickly instead of ground to completion.
// A worker failure also stops emission: the failed item is never done,
// so no range reaches it, and no range is started after the failure. An
// exception from emit poisons the batch the same way and is rethrown
// once in-flight units finish (a worker exception raised meanwhile is
// dropped). No item is ever emitted twice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/thread_pool.hpp"

namespace kusd::runner {

/// One work unit: stripe `stripe` of item `item` (both indices into the
/// caller's item list / the item's stripe count).
struct TaskUnit {
  std::size_t item = 0;
  std::uint32_t stripe = 0;
};

/// Stripes per item for a batch of `items` items of `trials` trials each
/// on `workers` workers: the one grain rule of runner::Sweep and
/// runner::run_trials. A set `width` gives ⌈trials/width⌉ (width >= 1).
/// Unset, the grain is derived as
///   max(⌈trials/8⌉, min(trials, ⌈32·workers/items⌉)):
/// about 32 units per worker over the batch, and never coarser than one
/// unit per 8 trials of an item (docs/architecture.md, "Sweep runner: the
/// work grain", has the measurements behind both constants). Always 1
/// when trials == 0. `trials` must fit in 32 bits.
[[nodiscard]] std::uint32_t stripes_per_item(
    std::size_t trials, std::size_t items, std::size_t workers,
    std::optional<std::size_t> width = std::nullopt);

/// The trials [begin, end) that stripe `stripe` of `stripes` owns: the
/// even contiguous partition [s·trials/stripes, (s+1)·trials/stripes).
struct TrialRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};
[[nodiscard]] inline TrialRange stripe_trials(std::size_t trials,
                                              std::uint32_t stripes,
                                              std::uint32_t stripe) {
  return {stripe * trials / stripes, (stripe + 1) * trials / stripes};
}

class TaskGraph {
 public:
  /// `stripes_per_item[i]` is the number of stripes item i decomposes
  /// into; 0 is promoted to 1 so every item completes (and reports done)
  /// even when it has no work. `order` optionally reorders the *items*
  /// for execution (a permutation of [0, items)); stripes of one item
  /// stay consecutive in the unit list. Results must not depend on the
  /// order — it exists for early-coverage scheduling (shuffled sweeps).
  explicit TaskGraph(std::vector<std::uint32_t> stripes_per_item,
                     std::vector<std::size_t> order = {});

  [[nodiscard]] std::size_t num_items() const {
    return stripes_.size();
  }
  [[nodiscard]] std::size_t num_units() const { return units_.size(); }
  [[nodiscard]] std::uint32_t stripes_of(std::size_t item) const {
    return stripes_[item];
  }

  /// Run every unit on `pool` workers pulling from the shared cursor.
  /// Submits one claiming loop per worker (capped at the unit count),
  /// runs `emit` (when set) on the calling thread while the workers run
  /// — emit(begin, end) hands over the done items [begin, end) at once —
  /// blocks until every unit is done or the batch failed, and rethrows
  /// the failure (see the file comment). The pool must be idle on entry
  /// and is idle again on return, so graphs can share one pool back to
  /// back.
  void run(util::ThreadPool& pool,
           const std::function<void(const TaskUnit&)>& run_stripe,
           const std::function<void(std::size_t item)>& on_item_done,
           const std::function<void(std::size_t begin, std::size_t end)>&
               emit = {}) const;

 private:
  std::vector<std::uint32_t> stripes_;
  std::vector<TaskUnit> units_;
};

}  // namespace kusd::runner
