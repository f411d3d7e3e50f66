#include "runner/task_graph.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "util/check.hpp"

namespace kusd::runner {

std::uint32_t stripes_per_item(std::size_t trials, std::size_t items,
                               std::size_t workers,
                               std::optional<std::size_t> width) {
  KUSD_CHECK_MSG(trials <= UINT32_MAX, "task graph: trial count too large");
  KUSD_CHECK_MSG(!width || *width >= 1, "task graph: stripe width must be at "
                                        "least 1");
  // The derived grain's target units per worker, and its coarsest
  // stripe in trials (see the header).
  constexpr std::size_t kUnitsPerWorker = 32;
  constexpr std::size_t kMaxStripeTrials = 8;
  if (trials == 0) return 1;
  const auto ceil_div = [](std::size_t a, std::size_t b) {
    return a / b + (a % b != 0 ? 1 : 0);
  };
  if (width) return static_cast<std::uint32_t>(ceil_div(trials, *width));
  const std::size_t spread =
      ceil_div(kUnitsPerWorker * workers, std::max<std::size_t>(items, 1));
  return static_cast<std::uint32_t>(std::max(
      ceil_div(trials, kMaxStripeTrials), std::min(trials, spread)));
}

TaskGraph::TaskGraph(std::vector<std::uint32_t> stripes_per_item,
                     std::vector<std::size_t> order)
    : stripes_(std::move(stripes_per_item)) {
  KUSD_CHECK_MSG(order.empty() || order.size() == stripes_.size(),
                 "task graph: order must permute the item list");
  for (auto& stripes : stripes_) stripes = std::max<std::uint32_t>(1, stripes);
  std::size_t total = 0;
  for (const auto stripes : stripes_) total += stripes;
  units_.reserve(total);
  if (order.empty()) {
    order.resize(stripes_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  }
  std::vector<bool> seen(stripes_.size(), false);
  for (const std::size_t item : order) {
    KUSD_CHECK_MSG(item < stripes_.size() && !seen[item],
                   "task graph: order must permute the item list");
    seen[item] = true;
    for (std::uint32_t s = 0; s < stripes_[item]; ++s) {
      units_.push_back(TaskUnit{item, s});
    }
  }
}

void TaskGraph::run(
    util::ThreadPool& pool,
    const std::function<void(const TaskUnit&)>& run_stripe,
    const std::function<void(std::size_t item)>& on_item_done,
    const std::function<void(std::size_t begin, std::size_t end)>& emit)
    const {
  if (units_.empty()) return;
  // Shared scheduler state, alive until wait_idle() below confirms every
  // claiming loop has exited (the pool finishes all tasks before
  // rethrowing a captured exception, so stack lifetime is safe).
  const auto remaining =
      std::make_unique<std::atomic<std::uint32_t>[]>(stripes_.size());
  for (std::size_t i = 0; i < stripes_.size(); ++i) {
    remaining[i].store(stripes_[i], std::memory_order_relaxed);
  }
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};

  // Emission handoff: workers mark finished items under `mu`; the calling
  // thread sleeps on `progress` until the item at `frontier` (the first
  // one it has not taken yet) is done, or the batch failed.
  std::mutex mu;
  std::condition_variable progress;
  std::vector<char> done(emit ? stripes_.size() : 0, 0);
  std::size_t frontier = 0;

  const auto claim_loop = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t next = cursor.fetch_add(1, std::memory_order_relaxed);
      if (next >= units_.size()) return;
      const TaskUnit& unit = units_[next];
      try {
        run_stripe(unit);
        // acq_rel: the finisher of an item's last stripe must observe
        // every other stripe's writes (the sweep's per-trial outcome
        // slots) before aggregating them in on_item_done.
        if (remaining[unit.item].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          on_item_done(unit.item);
          if (emit) {
            bool wake = false;
            {
              const std::lock_guard lock(mu);
              done[unit.item] = 1;
              wake = unit.item == frontier;
            }
            if (wake) {
              // Offer this core to the emitter too: with every core busy
              // a woken thread can wait out a scheduler slice. On a
              // 4-vCPU host the yield cut the first row's extra wait
              // from ~4.7 ms to ~1.9 ms.
              progress.notify_one();
              std::this_thread::yield();
            }
          }
        }
      } catch (...) {
        // Poison the batch before the pool captures the exception so no
        // worker claims further units (in-flight units finish on their
        // own workers), and wake the emitter so it stops.
        {
          const std::lock_guard lock(mu);
          failed.store(true, std::memory_order_relaxed);
        }
        progress.notify_one();
        throw;
      }
    }
  };
  const std::size_t loops = std::min(pool.num_threads(), units_.size());
  for (std::size_t i = 0; i < loops; ++i) pool.submit(claim_loop);

  if (emit) {
    try {
      std::size_t next = 0;
      while (next < done.size()) {
        std::size_t end = next;
        {
          std::unique_lock lock(mu);
          progress.wait(lock, [&] {
            return done[next] != 0 || failed.load(std::memory_order_relaxed);
          });
          if (failed.load(std::memory_order_relaxed)) break;
          while (end < done.size() && done[end] != 0) ++end;
          frontier = end;
        }
        emit(next, end);
        next = end;
      }
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      try {
        pool.wait_idle();
      } catch (...) {  // NOLINT(bugprone-empty-catch): emit's error wins
      }
      throw;
    }
  }
  pool.wait_idle();
}

}  // namespace kusd::runner
