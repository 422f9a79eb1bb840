#include "harness/machine.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace fluxdiv::harness {
namespace {

TEST(Machine, QueryReturnsSaneValues) {
  const MachineInfo info = queryMachine();
  EXPECT_GE(info.logicalCores, 1);
  for (const auto& c : info.caches) {
    EXPECT_GE(c.level, 1);
    EXPECT_GT(c.sizeBytes, 0u);
    EXPECT_GT(c.lineBytes, 0u);
    EXPECT_NE(c.type, "Instruction");
  }
}

TEST(Machine, LastLevelCachePicksDeepestLevel) {
  MachineInfo info;
  info.caches = {{1, "Data", 32 * 1024, 64, 8},
                 {2, "Unified", 256 * 1024, 64, 8},
                 {3, "Unified", 8 * 1024 * 1024, 64, 16}};
  EXPECT_EQ(lastLevelCacheBytes(info), 8u * 1024 * 1024);
  MachineInfo empty;
  EXPECT_EQ(lastLevelCacheBytes(empty), 0u);
}

TEST(Machine, ReportMentionsCoresAndCaches) {
  MachineInfo info;
  info.cpuModel = "TestCPU 9000";
  info.logicalCores = 42;
  info.caches = {{3, "Unified", 6 * 1024 * 1024, 64, 12}};
  std::ostringstream os;
  printMachineReport(os, info);
  const std::string out = os.str();
  EXPECT_NE(out.find("TestCPU 9000"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("L3"), std::string::npos);
  EXPECT_NE(out.find("6.00 MiB"), std::string::npos);
}

TEST(Machine, QueryNeverReturnsZeroSizedCaches) {
  // The cost model divides by cache capacities; a zero-sized level must
  // never escape queryMachine() even when detection fails.
  const MachineInfo info = queryMachine();
  ASSERT_FALSE(info.caches.empty());
  for (const auto& c : info.caches) {
    EXPECT_GT(c.sizeBytes, 0u);
    EXPECT_GT(c.lineBytes, 0u);
  }
  EXPECT_GT(lastLevelCacheBytes(info), 0u);
}

TEST(Machine, CacheFallbackInstallsDocumentedDefaults) {
  // Force the detection-failure path: no cache entries at all.
  MachineInfo info;
  EXPECT_TRUE(applyCacheFallback(info));
  EXPECT_TRUE(info.cacheFallback);
  EXPECT_EQ(info.caches.size(), defaultCacheHierarchy().size());
  for (const auto& c : info.caches) {
    EXPECT_GT(c.sizeBytes, 0u);
    EXPECT_EQ(c.lineBytes, 64u);
  }
  EXPECT_EQ(lastLevelCacheBytes(info), 8u * 1024 * 1024);
}

TEST(Machine, CacheFallbackDropsZeroSizedEntries) {
  // A partially-failed probe (zero-sized L2, usable L3) keeps the usable
  // level and does not install defaults.
  MachineInfo info;
  info.caches = {{2, "Unified", 0, 64, 8},
                 {3, "Unified", 6 * 1024 * 1024, 64, 12}};
  EXPECT_FALSE(applyCacheFallback(info));
  EXPECT_FALSE(info.cacheFallback);
  ASSERT_EQ(info.caches.size(), 1u);
  EXPECT_EQ(info.caches[0].level, 3);
  // All-zero probes fall through to the full default hierarchy.
  MachineInfo allZero;
  allZero.caches = {{1, "Data", 0, 0, 0}, {3, "Unified", 0, 0, 0}};
  EXPECT_TRUE(applyCacheFallback(allZero));
  EXPECT_TRUE(allZero.cacheFallback);
  EXPECT_EQ(lastLevelCacheBytes(allZero), 8u * 1024 * 1024);
}

TEST(Machine, FallbackReportIsMarked) {
  MachineInfo info;
  applyCacheFallback(info);
  info.cpuModel = "TestCPU";
  std::ostringstream os;
  printMachineReport(os, info);
  EXPECT_NE(os.str().find("default; detection failed"), std::string::npos);
}

TEST(Machine, ParseCpuListCountHandlesSysfsFormats) {
  EXPECT_EQ(parseCpuListCount("0"), 1);
  EXPECT_EQ(parseCpuListCount("0-3"), 4);
  EXPECT_EQ(parseCpuListCount("0-3,8-11,15"), 9);
  EXPECT_EQ(parseCpuListCount(""), 0);
  EXPECT_EQ(parseCpuListCount("abc"), 0);
  EXPECT_EQ(parseCpuListCount("3-1"), 0) << "inverted range counts nothing";
  EXPECT_EQ(parseCpuListCount("0,abc,4-5"), 3)
      << "unparseable tokens are skipped, not fatal";
}

TEST(Machine, QueryAlwaysReportsAtLeastOneNumaNode) {
  const MachineInfo info = queryMachine();
  ASSERT_FALSE(info.numaNodes.empty());
  int cpus = 0;
  for (const auto& n : info.numaNodes) {
    EXPECT_GE(n.id, 0);
    EXPECT_GT(n.cpuCount, 0);
    cpus += n.cpuCount;
  }
  EXPECT_GE(cpus, 1);
}

TEST(Machine, NumaFallbackInstallsSingleNodeSpanningAllCores) {
  MachineInfo info;
  info.logicalCores = 12;
  EXPECT_TRUE(applyNumaFallback(info));
  EXPECT_TRUE(info.numaFallback);
  ASSERT_EQ(info.numaNodes.size(), 1u);
  EXPECT_EQ(info.numaNodes[0].id, 0);
  EXPECT_EQ(info.numaNodes[0].cpuCount, 12);
}

TEST(Machine, NumaFallbackKeepsValidNodesAndDropsEmptyOnes) {
  MachineInfo info;
  info.logicalCores = 16;
  info.numaNodes = {{0, 8}, {1, 0}, {2, 8}};
  EXPECT_FALSE(applyNumaFallback(info));
  EXPECT_FALSE(info.numaFallback);
  ASSERT_EQ(info.numaNodes.size(), 2u);
  EXPECT_EQ(info.numaNodes[0].id, 0);
  EXPECT_EQ(info.numaNodes[1].id, 2);
}

TEST(Machine, ReportMentionsNumaTopology) {
  MachineInfo info;
  info.cpuModel = "TestCPU";
  info.logicalCores = 16;
  info.numaNodes = {{0, 8}, {1, 8}};
  applyCacheFallback(info);
  std::ostringstream os;
  printMachineReport(os, info);
  const std::string out = os.str();
  EXPECT_NE(out.find("NUMA: 2 nodes"), std::string::npos) << out;
  EXPECT_NE(out.find("node0: 8 CPUs"), std::string::npos) << out;
  EXPECT_NE(out.find("node1: 8 CPUs"), std::string::npos) << out;
}

TEST(Machine, DefaultThreadSweepShape) {
  EXPECT_EQ(defaultThreadSweep(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(defaultThreadSweep(8), (std::vector<std::int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(defaultThreadSweep(24),
            (std::vector<std::int64_t>{1, 2, 4, 8, 16, 24}));
  EXPECT_EQ(defaultThreadSweep(20),
            (std::vector<std::int64_t>{1, 2, 4, 8, 16, 20}));
}

} // namespace
} // namespace fluxdiv::harness
