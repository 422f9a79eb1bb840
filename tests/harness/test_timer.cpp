#include "harness/timer.hpp"

#include <gtest/gtest.h>

namespace fluxdiv::harness {
namespace {

TEST(Utilization, CpuSecondsOverWallTimesThreads) {
  EXPECT_DOUBLE_EQ(utilization(4.0, 1.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(utilization(1.0, 1.0, 4), 0.25)
      << "four threads sharing one CPU";
  EXPECT_DOUBLE_EQ(utilization(1.0, 0.0, 4), 0.0) << "no wall time";
}

TEST(Utilization, ProcessCpuSecondsCountsThisThreadsWork) {
  const double cpu0 = processCpuSeconds();
  const Timer wall;
  volatile double sink = 0.0;
  while (wall.seconds() < 0.05) {
    for (int i = 0; i < 1000; ++i) {
      sink = sink + 1.0;
    }
  }
  const double used = processCpuSeconds() - cpu0;
  EXPECT_GT(used, 0.0);
  EXPECT_LE(utilization(used, wall.seconds(), 64), 1.0);
}

} // namespace
} // namespace fluxdiv::harness
