// Concurrency stress suite: deliberately contended schedules for the
// shared-state paths the determinism contract leans on — ThreadPool
// (exception capture under contention, wait_idle racing enqueue, reuse
// after failure), the work-stealing TaskGraph (steal-heavy mixed stripe
// counts, exactly-once completion callbacks, first-exception-wins),
// striped run_trials, and parallel runner::Sweep cells. The assertions
// matter, but the real reviewer is ThreadSanitizer: the `tsan` preset
// runs this suite to give TSan genuine interleavings to inspect (see
// docs/verification.md). Keep new cross-thread machinery covered here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rng/rng.hpp"
#include "runner/sweep.hpp"
#include "runner/task_graph.hpp"
#include "runner/trials.hpp"
#include "util/thread_pool.hpp"

namespace kusd {
namespace {

TEST(ThreadPoolStress, ManySubmittersManyTasks) {
  util::ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  constexpr int kSubmitters = 8;
  constexpr int kTasksPerSubmitter = 400;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &sum, s] {
      for (int t = 0; t < kTasksPerSubmitter; ++t) {
        pool.submit([&sum, s, t] {
          sum.fetch_add(static_cast<std::uint64_t>(s * kTasksPerSubmitter + t),
                        std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  pool.wait_idle();
  constexpr std::uint64_t kTotal = kSubmitters * kTasksPerSubmitter;
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
}

TEST(ThreadPoolStress, WaitIdleRacesEnqueue) {
  // wait_idle() from one thread while another is mid-burst: every round
  // must observe at least its own completed burst, and the final count
  // must be exact. The interesting part is what TSan sees, not the sum.
  util::ThreadPool pool(2);
  std::atomic<int> done{0};
  constexpr int kBursts = 50;
  constexpr int kPerBurst = 20;
  std::thread submitter([&pool, &done] {
    for (int b = 0; b < kBursts; ++b) {
      for (int t = 0; t < kPerBurst; ++t) {
        pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      }
    }
  });
  for (int i = 0; i < 20; ++i) pool.wait_idle();
  submitter.join();
  pool.wait_idle();
  EXPECT_EQ(done.load(), kBursts * kPerBurst);
}

TEST(ThreadPoolStress, FirstExceptionWinsUnderContention) {
  util::ThreadPool pool(4);
  std::atomic<int> ran{0};
  constexpr int kThrowers = 16;
  constexpr int kWorkers = 200;
  std::vector<std::thread> submitters;
  submitters.reserve(2);
  submitters.emplace_back([&pool] {
    for (int t = 0; t < kThrowers; ++t) {
      pool.submit([t] {
        throw std::runtime_error("boom " + std::to_string(t));
      });
    }
  });
  submitters.emplace_back([&pool, &ran] {
    for (int t = 0; t < kWorkers; ++t) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  for (auto& thread : submitters) thread.join();
  // Exactly one exception surfaces (the first captured); the rest are
  // dropped and every non-throwing task still ran.
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // No stale exception left behind.
  EXPECT_EQ(ran.load(), kWorkers);

  // The pool is reusable after a failure.
  std::atomic<int> after{0};
  for (int t = 0; t < 50; ++t) {
    pool.submit([&after] { after.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(after.load(), 50);
}

TEST(ThreadPoolStress, DestructorDrainsPendingQueue) {
  std::atomic<int> done{0};
  constexpr int kTasks = 300;
  {
    util::ThreadPool pool(3);
    for (int t = 0; t < kTasks; ++t) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait_idle: the destructor must drain the queue before joining.
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolStress, PendingExceptionDiscardedAtDestruction) {
  std::atomic<int> done{0};
  {
    util::ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("never observed"); });
    for (int t = 0; t < 100; ++t) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(TrialStress, StripedTrialsWriteDisjointSlots) {
  // Striped workers write result slots concurrently — disjoint by index,
  // which TSan confirms is genuinely race-free. Values pin the seed
  // derivation: trial i sees stream_seed(master, i) wherever it ran.
  util::ThreadPool pool(8);
  constexpr int kTrials = 5000;
  constexpr std::uint64_t kMaster = 99;
  const auto results = runner::run_trials<std::uint64_t>(
      pool, kTrials, kMaster, [](std::uint64_t seed) { return seed ^ 0x5aa5; });
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kTrials));
  for (int i = 0; i < kTrials; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)],
              rng::stream_seed(kMaster, static_cast<std::uint64_t>(i)) ^
                  0x5aa5);
  }
}

TEST(TrialStress, TrialExceptionPropagatesPoolSurvives) {
  util::ThreadPool pool(4);
  const auto bomb = [](std::uint64_t seed) -> int {
    if (seed == rng::stream_seed(7, 13)) throw std::runtime_error("trial 13");
    return 1;
  };
  EXPECT_THROW(runner::run_trials<int>(pool, 64, 7, bomb), std::runtime_error);
  // The pool outlives the failed batch and runs the next one cleanly.
  const auto ok =
      runner::run_trials<int>(pool, 32, 8, [](std::uint64_t) { return 2; });
  EXPECT_EQ(ok.size(), 32u);
}

TEST(TaskGraphStress, StealHeavyMixedStripeCounts) {
  // A steal-heavy schedule: items alternate between 1 stripe and 64
  // stripes, so workers that drain a skinny item immediately steal into
  // a fat one. Every stripe must run exactly once and every item's
  // completion callback must fire exactly once, after all its stripes.
  util::ThreadPool pool(8);
  constexpr std::size_t kItems = 40;
  std::vector<std::uint32_t> stripes(kItems);
  std::size_t total_units = 0;
  for (std::size_t i = 0; i < kItems; ++i) {
    stripes[i] = (i % 2 == 0) ? 1u : 64u;
    total_units += stripes[i];
  }
  const runner::TaskGraph graph(std::move(stripes));
  ASSERT_EQ(graph.num_units(), total_units);
  std::vector<std::atomic<std::uint32_t>> stripe_runs(kItems);
  std::vector<std::atomic<std::uint32_t>> done_calls(kItems);
  graph.run(
      pool,
      [&stripe_runs](const runner::TaskUnit& unit) {
        stripe_runs[unit.item].fetch_add(1, std::memory_order_relaxed);
      },
      [&](std::size_t item) {
        // All of the item's stripes must be visible to the finisher.
        EXPECT_EQ(stripe_runs[item].load(std::memory_order_relaxed),
                  graph.stripes_of(item));
        done_calls[item].fetch_add(1, std::memory_order_relaxed);
      });
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(stripe_runs[i].load(), graph.stripes_of(i)) << "item " << i;
    EXPECT_EQ(done_calls[i].load(), 1u) << "item " << i;
  }
}

TEST(TaskGraphStress, FirstExceptionWinsAndPoisonsBatch) {
  // One stripe throws; the batch stops claiming new units, exactly one
  // exception surfaces, and the pool survives for the next batch.
  util::ThreadPool pool(4);
  const runner::TaskGraph graph(std::vector<std::uint32_t>(64, 8u));
  std::atomic<std::uint32_t> ran{0};
  EXPECT_THROW(
      graph.run(
          pool,
          [&ran](const runner::TaskUnit& unit) {
            if (unit.item == 5 && unit.stripe == 3) {
              throw std::runtime_error("stripe bomb");
            }
            ran.fetch_add(1, std::memory_order_relaxed);
          },
          [](std::size_t) {}),
      std::runtime_error);
  // Poisoning is best-effort — in-flight stripes finish — but the batch
  // must not have run everything as if nothing happened... unless the
  // scheduler genuinely raced everything through first, which the cap
  // below tolerates.
  EXPECT_LE(ran.load(), graph.num_units() - 1);

  std::atomic<std::uint32_t> after{0};
  const runner::TaskGraph clean(std::vector<std::uint32_t>(16, 2u));
  clean.run(
      pool,
      [&after](const runner::TaskUnit&) {
        after.fetch_add(1, std::memory_order_relaxed);
      },
      [](std::size_t) {});
  EXPECT_EQ(after.load(), clean.num_units());
}

TEST(TaskGraphStress, ShuffledOrderStillCompletesEverything) {
  // A custom execution order (here: reversed) only changes scheduling;
  // coverage and completion semantics are unchanged.
  util::ThreadPool pool(4);
  constexpr std::size_t kItems = 25;
  std::vector<std::uint32_t> stripes(kItems, 3u);
  std::vector<std::size_t> order(kItems);
  for (std::size_t i = 0; i < kItems; ++i) order[i] = kItems - 1 - i;
  const runner::TaskGraph graph(std::move(stripes), std::move(order));
  std::vector<std::atomic<std::uint32_t>> runs(kItems);
  std::atomic<std::uint32_t> done{0};
  graph.run(
      pool,
      [&runs](const runner::TaskUnit& unit) {
        runs[unit.item].fetch_add(1, std::memory_order_relaxed);
      },
      [&done](std::size_t) { done.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(done.load(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(runs[i].load(), 3u);
}

TEST(TaskGraphStress, EmitRunsInOrderOnTheCallingThread) {
  // The emit hook is the handoff from workers to the caller: it gets the
  // items as non-empty ranges that are contiguous, increasing and tile
  // [0, items) exactly once, on the thread that called run(), and only
  // after every item's on_item_done returned (TSan checks that the
  // caller's read of `finished` is ordered after the worker's write).
  constexpr std::size_t kItems = 300;
  std::vector<std::size_t> reversed(kItems);
  for (std::size_t i = 0; i < kItems; ++i) reversed[i] = kItems - 1 - i;
  std::vector<std::size_t> shuffled(kItems);
  for (std::size_t i = 0; i < kItems; ++i) shuffled[i] = i;
  rng::Rng(17).shuffle(std::span<std::size_t>(shuffled));
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (const auto* order : {&reversed, &shuffled}) {
      util::ThreadPool pool(threads);
      std::vector<std::uint32_t> stripes(kItems);
      for (std::size_t i = 0; i < kItems; ++i) stripes[i] = 1 + i % 5;
      const runner::TaskGraph graph(std::move(stripes), *order);
      std::vector<char> finished(kItems, 0);
      std::vector<std::pair<std::size_t, std::size_t>> ranges;
      const auto caller = std::this_thread::get_id();
      graph.run(
          pool, [](const runner::TaskUnit&) {},
          [&finished](std::size_t item) { finished[item] = 1; },
          [&](std::size_t begin, std::size_t end) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            for (std::size_t item = begin; item < end; ++item) {
              EXPECT_EQ(finished[item], 1);
            }
            ranges.emplace_back(begin, end);
          });
      const std::string where = std::to_string(threads) + " threads, " +
                                (order == &reversed ? "reversed" : "shuffled");
      ASSERT_FALSE(ranges.empty()) << where;
      std::size_t expected_begin = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, expected_begin) << where;
        EXPECT_LT(begin, end) << where;
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, kItems) << where;
    }
  }
}

// One small but genuinely parallel sweep per schedule, byte-compared.
// This is the contract the whole tooling layer defends: CSV output is a
// pure function of (spec, master_seed), independent of thread count,
// stripe width, and execution order — and TSan watches the cell
// buffering that makes it so.
std::vector<std::string> sweep_rows(std::size_t stripe_width, bool shuffle,
                                    std::size_t threads) {
  runner::SweepSpec spec;
  spec.engines = {"skip", "batched"};
  spec.ns = {300, 500};
  spec.ks = {2, 3};
  spec.trials = 6;
  spec.master_seed = 42;
  spec.threads = threads;
  spec.stripe_width = stripe_width;
  spec.shuffle_points = shuffle;
  runner::Sweep sweep(spec);
  std::vector<std::string> rows;
  sweep.run([&rows](const runner::SweepCell& cell) {
    std::string row;
    for (const auto& field : runner::Sweep::csv_row(cell)) {
      row += field;
      row += ',';
    }
    rows.push_back(std::move(row));
  });
  return rows;
}

TEST(SweepStress, CellsByteIdenticalAcrossSchedules) {
  const auto sequential = sweep_rows(1, false, 1);
  const auto striped = sweep_rows(2, false, 4);
  const auto wide_stripes = sweep_rows(64, false, 4);
  const auto shuffled = sweep_rows(3, true, 4);
  EXPECT_EQ(sequential, striped);
  EXPECT_EQ(sequential, wide_stripes);
  EXPECT_EQ(sequential, shuffled);
}

TEST(SweepStress, EmitterHandoffByteIdenticalAcrossThreadsAndStripes) {
  // The calling thread emits while workers keep finishing cells: every
  // (threads, stripe width) pair hands cells over at different moments,
  // and the rows must not change.
  const auto reference = sweep_rows(1, false, 1);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (const std::size_t width : {1u, 3u, 16u}) {
      EXPECT_EQ(sweep_rows(width, false, threads), reference)
          << threads << " threads, stripe width " << width;
    }
  }
}

TEST(SweepStress, ManySmallPointsKeepCallbackSerial) {
  // A wide grid of tiny points maximizes contention on the buffered-emit
  // path. The callback must never run concurrently with itself; the
  // re-entrancy counter would trip (and TSan would flag the data race on
  // `inside`) if it ever did.
  runner::SweepSpec spec;
  spec.engines = {"skip"};
  spec.ns = {100, 150, 200, 250, 300, 350};
  spec.ks = {2, 3, 4};
  spec.trials = 3;
  spec.master_seed = 9;
  spec.threads = 8;
  spec.stripe_width = 1;
  spec.shuffle_points = true;
  runner::Sweep sweep(spec);
  int inside = 0;
  std::size_t cells = 0;
  sweep.run([&inside, &cells](const runner::SweepCell&) {
    ASSERT_EQ(++inside, 1);
    ++cells;
    --inside;
  });
  EXPECT_EQ(cells, sweep.grid().size());
}

}  // namespace
}  // namespace kusd
