// Trajectory recorder: downsampling, bounded memory, CSV export.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "pp/configuration.hpp"
#include "pp/trajectory.hpp"
#include "runner/csv.hpp"
#include "sim/registry.hpp"
#include "util/check.hpp"

namespace kusd {
namespace {

TEST(Trajectory, RecordsSnapshotsInOrder) {
  pp::Trajectory traj(64);
  const std::vector<pp::Count> opinions{5, 3, 2};
  traj.record(0, opinions, 0);
  traj.record(10, opinions, 0);
  traj.record(20, opinions, 0);
  ASSERT_EQ(traj.size(), 3u);
  EXPECT_EQ(traj.points()[0].t, 0u);
  EXPECT_EQ(traj.points()[2].t, 20u);
  EXPECT_EQ(traj.points()[0].xmax, 5u);
  EXPECT_EQ(traj.points()[0].second, 3u);
  EXPECT_DOUBLE_EQ(traj.points()[0].sum_squares, 25 + 9 + 4);
}

TEST(Trajectory, MemoryStaysBounded) {
  pp::Trajectory traj(16);
  const std::vector<pp::Count> opinions{1};
  for (std::uint64_t t = 0; t < 100000; ++t) {
    traj.record(t, opinions, 0);
  }
  EXPECT_LE(traj.size(), 16u);
  EXPECT_GE(traj.size(), 4u);
  // Still covers the whole time range roughly uniformly.
  EXPECT_EQ(traj.points().front().t, 0u);
  EXPECT_GT(traj.points().back().t, 50000u);
}

TEST(Trajectory, StrideSkipsDenseUpdates) {
  pp::Trajectory traj(8);
  const std::vector<pp::Count> opinions{1};
  for (std::uint64_t t = 0; t < 64; ++t) traj.record(t, opinions, 0);
  // After thinning, points must be strictly increasing in t.
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_GT(traj.points()[i].t, traj.points()[i - 1].t);
  }
}

TEST(Trajectory, RejectsTinyCapacity) {
  EXPECT_THROW(pp::Trajectory(2), util::CheckError);
}

TEST(Trajectory, CsvRoundTrip) {
  pp::Trajectory traj(32);
  traj.record(0, std::vector<pp::Count>{7, 2}, 1);
  traj.record(5, std::vector<pp::Count>{8, 1}, 1);
  const std::string path = "/tmp/kusd_trajectory_test.csv";
  runner::write_trajectory_csv(traj, path);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  EXPECT_NE(content.find("t,undecided,xmax,second,sum_squares"),
            std::string::npos);
  EXPECT_NE(content.find("0,1,7,2"), std::string::npos);
  EXPECT_NE(content.find("5,1,8,1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trajectory, IntegratesWithSimulatorObserver) {
  const auto x0 = pp::Configuration::uniform(2000, 3, 0);
  const auto engine = sim::Registry::instance().create("every", x0, 5);
  pp::Trajectory traj(256);
  engine->run_observed(10'000'000, 200,
                       [&traj](std::uint64_t t,
                               std::span<const pp::Count> opinions,
                               pp::Count u) { traj.record(t, opinions, u); });
  ASSERT_TRUE(engine->is_consensus());
  ASSERT_GE(traj.size(), 2u);
  // The last snapshot is consensus: xmax = n, undecided = 0.
  EXPECT_EQ(traj.points().back().xmax, 2000u);
  EXPECT_EQ(traj.points().back().undecided, 0u);
}

}  // namespace
}  // namespace kusd
