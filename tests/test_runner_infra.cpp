// Runner infrastructure: thread pool, trials, table, CSV, scale knob.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "runner/csv.hpp"
#include "runner/table.hpp"
#include "runner/task_graph.hpp"
#include "runner/trials.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace kusd {
namespace {

TEST(ThreadPool, ExecutesAllTasks) {
  std::atomic<int> counter{0};
  {
    util::ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&counter] { ++counter; });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 1000);
  }
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  util::ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DrainsOnDestruction) {
  std::atomic<int> counter{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
  }  // destructor joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, RethrowsFirstTaskExceptionFromWaitIdle) {
  util::ThreadPool pool(2);
  std::atomic<int> completed{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&completed, i] {
      if (i == 7) throw std::runtime_error("trial 7 exploded");
      ++completed;
    });
  }
  EXPECT_THROW(
      {
        try {
          pool.wait_idle();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "trial 7 exploded");
          throw;
        }
      },
      std::runtime_error);
  // The exception is consumed: the pool stays usable afterwards.
  pool.submit([&completed] { ++completed; });
  pool.wait_idle();
  EXPECT_EQ(completed.load(), 50);
}

TEST(ThreadPool, PendingExceptionDoesNotEscapeDestructor) {
  util::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("unobserved"); });
  // Destructor drains and discards; reaching the next line is the test.
}

TEST(Trials, ResultsAreOrderedAndSeedsDistinct) {
  const auto results = runner::run_trials<std::uint64_t>(
      64, 99, [](std::uint64_t seed) { return seed; }, 8);
  ASSERT_EQ(results.size(), 64u);
  std::set<std::uint64_t> unique(results.begin(), results.end());
  EXPECT_EQ(unique.size(), 64u);
  // Deterministic: re-running gives identical seeds in identical order.
  const auto again = runner::run_trials<std::uint64_t>(
      64, 99, [](std::uint64_t seed) { return seed; }, 3);
  EXPECT_EQ(results, again);
}

TEST(Trials, SamplesWrapperCollects) {
  const auto samples = runner::run_trials_samples(
      50, 7, [](std::uint64_t) { return 2.5; }, 4);
  EXPECT_EQ(samples.count(), 50u);
  EXPECT_DOUBLE_EQ(samples.mean(), 2.5);
}

TEST(Trials, RejectsNegativeTrialCount) {
  EXPECT_THROW(runner::run_trials<int>(
                   -1, 1, [](std::uint64_t) { return 0; }, 2),
               util::CheckError);
}

TEST(Trials, ZeroTrialsReturnsEmpty) {
  EXPECT_TRUE(runner::run_trials<int>(
                  0, 1, [](std::uint64_t) { return 0; }, 2)
                  .empty());
}

TEST(Trials, ThrowingTrialPropagates) {
  EXPECT_THROW(runner::run_trials<int>(
                   32, 1,
                   [](std::uint64_t) -> int {
                     throw std::runtime_error("bad trial");
                   },
                   4),
               std::runtime_error);
}

TEST(Trials, BitIdenticalAcrossThreadCounts) {
  // Results must not depend on parallelism: seeds are a function of the
  // trial index alone and collection is by index.
  const auto fn = [](std::uint64_t seed) {
    rng::Rng rng(seed);
    double acc = 0.0;
    for (int i = 0; i < 100; ++i) acc += rng.uniform01();
    return acc;
  };
  const auto single = runner::run_trials<double>(128, 2024, fn, 1);
  const auto parallel = runner::run_trials<double>(128, 2024, fn, 8);
  EXPECT_EQ(single, parallel);  // bit-identical, not just approximately
}

TEST(TaskGraph, StripesPerItemDerivesTheGrainFromTheBatch) {
  using runner::stripes_per_item;
  // The kusdbench grids at 4 workers: (points run, trials per point).
  EXPECT_EQ(stripes_per_item(4, 8000, 4), 1u);   // service, one shard
  EXPECT_EQ(stripes_per_item(16, 8, 4), 16u);    // graph_classes
  EXPECT_EQ(stripes_per_item(32, 4, 4), 32u);    // exact_chain
  EXPECT_EQ(stripes_per_item(128, 3, 4), 43u);   // tauleap
  // No trials is still one unit, so the item completes.
  EXPECT_EQ(stripes_per_item(0, 1, 4), 1u);
  EXPECT_EQ(stripes_per_item(0, 1, 4, 3), 1u);
  // A set width gives ceil(trials / width), whatever the batch.
  EXPECT_EQ(stripes_per_item(128, 3, 4, 1), 128u);
  EXPECT_EQ(stripes_per_item(128, 3, 4, 8), 16u);
  EXPECT_EQ(stripes_per_item(10, 1, 64, 3), 4u);
  EXPECT_EQ(stripes_per_item(5, 1, 1, 64), 1u);
  EXPECT_EQ(stripes_per_item(5, 1, 1, SIZE_MAX), 1u);
  EXPECT_THROW((void)stripes_per_item(5, 1, 1, 0), util::CheckError);
  // A many-point grid keeps the 8-trial floor: ceil(trials / 8).
  EXPECT_EQ(stripes_per_item(100, 10000, 4), 13u);
  EXPECT_EQ(stripes_per_item(64, 1000, 8), 8u);
  // A lone item spreads over every worker, but never below one trial.
  EXPECT_EQ(stripes_per_item(1000, 1, 4), 128u);
  EXPECT_EQ(stripes_per_item(3, 1, 64), 3u);
}

TEST(Rng, StreamSeedCollisionSmokeOverMillionIds) {
  // One master seed, 1M trial ids: the Philox-derived 64-bit stream seeds
  // must be collision-free (the fold's birthday bound: ~2.7e-8 expected).
  constexpr std::uint64_t kIds = 1'000'000;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(kIds * 2);
  for (std::uint64_t id = 0; id < kIds; ++id) {
    seen.insert(rng::stream_seed(0xFEEDFACE, id));
  }
  EXPECT_EQ(seen.size(), kIds);
}

TEST(Table, RendersAlignedRows) {
  runner::Table t({"n", "time"});
  t.add_row({"100", "1.5"});
  t.add_row({"100000", "3.25"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| n "), std::string::npos);
  EXPECT_NE(out.find("100000"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  runner::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), util::CheckError);
}

TEST(TableFormat, FmtMatchesPrintfByteForByte) {
  // fmt is the sweep schema's number spelling: it must stay exactly
  // printf's "%.*f", ties (round half to even on the exact binary value)
  // and signed zeros included.
  const std::vector<double> values = {
      0.0,
      -0.0,
      0.125,
      0.375,
      2.5,
      -2.5,
      0.00005,
      0.00015,
      1e-7,
      -1e-7,
      1e17,
      -1e17,
      1e22,
      1.5e300,
      3.14159,
      0.1,
      1.0 / 3,
      123456.7890125,
      0.99995,
      9.5,
      -0.0000004,
      4503599627370497.5,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (const int precision : {0, 2, 4, 6}) {
    for (const double value : values) {
      char expected[64];
      std::snprintf(expected, sizeof expected, "%.*f", precision, value);
      EXPECT_EQ(runner::fmt(value, precision), expected)
          << "precision " << precision << ", value " << value;
    }
  }
  EXPECT_EQ(runner::fmt(0.125, 2), "0.12");
  EXPECT_EQ(runner::fmt(0.375, 2), "0.38");
  EXPECT_EQ(runner::fmt(-0.0, 4), "-0.0000");
  EXPECT_EQ(runner::fmt(1e17, 0), "100000000000000000");
  EXPECT_EQ(runner::fmt(1e-7, 6), "0.000000");
  EXPECT_EQ(runner::fmt(2.5, 0), "2");
}

TEST(Table, RendersRaggedAndEmptyCellsExactly) {
  runner::Table t({"a", "long header", ""});
  t.add_row({"", "x", "wide cell"});
  t.add_row({"12345", "", ""});
  EXPECT_EQ(t.to_string(),
            "| a     | long header |           |\n"
            "|-------|-------------|-----------|\n"
            "|       | x           | wide cell |\n"
            "| 12345 |             |           |\n");
  runner::Table empty({"only"});
  EXPECT_EQ(empty.to_string(), "| only |\n|------|\n");
}

TEST(Csv, QuotesOnlyCellsThatNeedIt) {
  const std::string path = "/tmp/kusd_test_csv_mix.csv";
  {
    runner::CsvWriter w(path, {"a", "b,c", "d"});
    w.write_row({"plain", "", "x\"y"});
    w.write_row({"\"", "1,2", "a\r\nb"});
    w.write_row({"", "", ""});
    w.flush();
    EXPECT_TRUE(w.ok());
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(),
            "a,\"b,c\",d\n"
            "plain,,\"x\"\"y\"\n"
            "\"\"\"\",\"1,2\",\"a\r\nb\"\n"
            ",,\n");
  std::remove(path.c_str());
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = "/tmp/kusd_test_csv.csv";
  {
    runner::CsvWriter w(path, {"a", "b"});
    w.write_row({"1", "plain"});
    w.write_row({"2", "with,comma"});
    w.write_row({"3", "with\"quote"});
    EXPECT_THROW(w.write_row({"too", "many", "cells"}), util::CheckError);
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  EXPECT_NE(content.find("a,b\n"), std::string::npos);
  EXPECT_NE(content.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(content.find("\"with\"\"quote\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, QuotesLineBreakCells) {
  const std::string path = "/tmp/kusd_test_csv_crlf.csv";
  {
    runner::CsvWriter w(path, {"cell"});
    w.write_row({"with\nnewline"});
    w.write_row({"with\rcarriage"});
    EXPECT_THROW(w.write_row({}), util::CheckError);  // width 0 != 1
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  EXPECT_NE(content.find("\"with\nnewline\""), std::string::npos);
  EXPECT_NE(content.find("\"with\rcarriage\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Stopwatch, MeasuresElapsedTime) {
  util::Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
  EXPECT_NEAR(sw.millis(), sw.seconds() * 1000.0, 50.0);
}

}  // namespace
}  // namespace kusd
