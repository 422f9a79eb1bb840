// Shadow-memory race detector tests. ShadowMemory and CheckedAccessor are
// compiled in every build and tested directly; the FArrayBox/runner
// integration (which is what catches a racy executor in practice) is
// exercised under FLUXDIV_SHADOW_CHECK, including a seeded cross-worker
// overlapping-commit schedule that must be flagged at the shared plane.

#include "grid/shadow.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "grid/box.hpp"
#include "grid/farraybox.hpp"

#ifdef FLUXDIV_SHADOW_CHECK
#include "core/runner.hpp"
#include "grid/layout.hpp"
#include "grid/leveldata.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#endif

namespace fluxdiv::grid {
namespace {

using Kind = ShadowMemory::ViolationKind;

/// Run body(tid) on `team` std::threads (tid 0..team-1) at once and join.
template <typename Body>
void runTeam(int team, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(team));
  for (int tid = 0; tid < team; ++tid) {
    threads.emplace_back(body, tid);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

// ShadowMemory owns a mutex and atomics and is deliberately immovable, so
// the tests share one fixture-held instance shaped in SetUp.
class ShadowMemoryTest : public ::testing::Test {
protected:
  void SetUp() override { s.define(Box::cube(8), 2); }
  ShadowMemory s;
};

TEST_F(ShadowMemoryTest, CleanSingleWriterReadAfterWrite) {
  const IntVect p(3, 4, 5);
  s.recordWrite(p, 1, /*worker=*/0);
  s.recordRead(p, 1, /*worker=*/0);
  // Re-writing one's own slot (directional accumulation) is not a race.
  s.recordWrite(p, 1, /*worker=*/0);
  EXPECT_EQ(s.violationCount(), 0u);
}

TEST_F(ShadowMemoryTest, CrossWorkerSameEpochWriteIsFlagged) {
  const IntVect p(1, 2, 3);
  s.recordWrite(p, 0, /*worker=*/0);
  s.recordWrite(p, 0, /*worker=*/1);
  ASSERT_EQ(s.violationCount(), 1u);
  const auto v = s.violations();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Kind::WriteWrite);
  EXPECT_EQ(v[0].cell, p);
  EXPECT_EQ(v[0].comp, 0);
  // Both workers are named, in either order.
  EXPECT_NE(v[0].workerA, v[0].workerB);
  EXPECT_TRUE(v[0].workerA == 0 || v[0].workerA == 1);
  EXPECT_TRUE(v[0].workerB == 0 || v[0].workerB == 1);
}

TEST_F(ShadowMemoryTest, EpochBoundarySeparatesWriters) {
  const IntVect p(0, 0, 0);
  s.recordWrite(p, 0, /*worker=*/0);
  s.beginEpoch(); // the barrier between evaluations
  s.recordWrite(p, 0, /*worker=*/1);
  EXPECT_EQ(s.violationCount(), 0u);
}

TEST_F(ShadowMemoryTest, ReadBeforeWriteFlaggedAtExactSlot) {
  const IntVect p(7, 0, 2);
  s.recordRead(p, 1, /*worker=*/3);
  ASSERT_EQ(s.violationCount(), 1u);
  const auto v = s.violations();
  EXPECT_EQ(v[0].kind, Kind::ReadBeforeWrite);
  EXPECT_EQ(v[0].cell, p);
  EXPECT_EQ(v[0].comp, 1);
  EXPECT_EQ(v[0].workerA, 3);
  // A stale tag from the previous epoch is equally a read-before-write.
  s.clearViolations();
  s.recordWrite(p, 1, /*worker=*/0);
  s.beginEpoch();
  s.recordRead(p, 1, /*worker=*/0);
  EXPECT_EQ(s.violationCount(), 1u);
}

TEST_F(ShadowMemoryTest, FillAllMarksEverySlotProduced) {
  s.fillAll(); // e.g. exchanged ghost data: readable by anyone
  s.recordRead(IntVect(0, 0, 0), 0, /*worker=*/0);
  s.recordRead(IntVect(7, 7, 7), 1, /*worker=*/5);
  EXPECT_EQ(s.violationCount(), 0u);
  // ...and overwriting pre-filled data is not a write-write race.
  s.recordWrite(IntVect(4, 4, 4), 0, /*worker=*/2);
  EXPECT_EQ(s.violationCount(), 0u);
}

TEST_F(ShadowMemoryTest, RegionWriteCoversExactlyTheRegion) {
  const Box region(IntVect(1, 1, 1), IntVect(3, 3, 3));
  s.recordWriteRegion(region, 0, 2, /*worker=*/0);
  s.recordRead(IntVect(3, 3, 3), 1, /*worker=*/0);
  EXPECT_EQ(s.violationCount(), 0u);
  s.recordRead(IntVect(4, 3, 3), 1, /*worker=*/0); // one past the region
  EXPECT_EQ(s.violationCount(), 1u);
}

TEST_F(ShadowMemoryTest, ViolationCountKeepsCountingPastStorageBound) {
  const std::size_t n = ShadowMemory::kMaxStored + 20;
  for (std::size_t i = 0; i < n; ++i) {
    // Alternating writers on one slot: every write is a fresh violation.
    s.recordWrite(IntVect(0, 0, 0), 0, static_cast<int>(i % 2));
  }
  EXPECT_EQ(s.violationCount(), n - 1);
  EXPECT_EQ(s.violations().size(), ShadowMemory::kMaxStored);
  s.clearViolations();
  EXPECT_EQ(s.violationCount(), 0u);
  EXPECT_TRUE(s.violations().empty());
}

TEST_F(ShadowMemoryTest, MessageNamesCellCompAndWorkers) {
  s.recordWrite(IntVect(2, 5, 6), 1, 0);
  s.recordWrite(IntVect(2, 5, 6), 1, 7);
  const auto v = s.violations();
  ASSERT_EQ(v.size(), 1u);
  const std::string msg = v[0].message();
  EXPECT_NE(msg.find("(2,5,6)"), std::string::npos) << msg;
  EXPECT_NE(msg.find('7'), std::string::npos) << msg;
}

TEST_F(ShadowMemoryTest, SeededCrossWorkerThreadRace) {
  // The race the detector exists for: a team of threads writing one slot
  // in the same epoch. With one write per worker, every worker after the
  // first observes a tag from a different worker.
  const int team = 4;
  runTeam(team,
          [&](int tid) { s.recordWrite(IntVect(3, 3, 3), 0, tid); });
  ASSERT_EQ(s.violationCount(), static_cast<std::size_t>(team - 1));
  EXPECT_EQ(s.violations()[0].kind, Kind::WriteWrite);
}

TEST(CheckedAccessor, RoundTripAndRaceDetection) {
  FArrayBox fab(Box::cube(4), 2);
  ShadowMemory shadow;
  shadow.define(fab.box(), fab.nComp());
  CheckedAccessor w0(fab, shadow, /*worker=*/0);
  CheckedAccessor w1(fab, shadow, /*worker=*/1);
  w0.write(IntVect(1, 2, 3), 1, 42.0);
  EXPECT_EQ(w0.read(IntVect(1, 2, 3), 1), 42.0);
  EXPECT_EQ(shadow.violationCount(), 0u);
  w1.write(IntVect(1, 2, 3), 1, 43.0); // cross-worker, same epoch
  ASSERT_EQ(shadow.violationCount(), 1u);
  EXPECT_EQ(shadow.violations()[0].kind, Kind::WriteWrite);
}

TEST(CheckedAccessor, OutOfBoundsIsFlaggedNotDereferenced) {
  FArrayBox fab(Box::cube(4), 2);
  ShadowMemory shadow;
  shadow.define(fab.box(), fab.nComp());
  CheckedAccessor acc(fab, shadow, /*worker=*/0);
  acc.write(IntVect(4, 0, 0), 0, 1.0);  // x past the box
  (void)acc.read(IntVect(0, 0, 0), 2);  // component past nComp
  acc.write(IntVect(0, -1, 0), 1, 2.0); // y below the box
  ASSERT_EQ(shadow.violationCount(), 3u);
  for (const auto& v : shadow.violations()) {
    EXPECT_EQ(v.kind, Kind::OutOfBounds);
  }
  // The fab itself was never touched.
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(fab(IntVect(0, 0, 0), c), 0.0);
  }
}

#ifdef FLUXDIV_SHADOW_CHECK

TEST(ShadowIntegration, OverlappingTileCommitsAreCaught) {
  // A real broken overlapped-tile schedule: two concurrent tiles commit
  // their *grown* regions (a tile that commits its overlap region):
  // both workers write the shared plane x = 8 in the same epoch.
  FArrayBox phi1(Box::cube(16), 1);
  phi1.shadowBeginEpoch();
  const Box tileA(IntVect(0, 0, 0), IntVect(8, 15, 15));
  const Box tileB(IntVect(8, 0, 0), IntVect(15, 15, 15));
  runTeam(2, [&](int tid) {
    phi1.shadowRecordWrite(tid == 0 ? tileA : tileB, 0, 1, tid);
  });
  ASSERT_GT(phi1.shadow().violationCount(), 0u);
  const auto v = phi1.shadow().violations();
  EXPECT_EQ(v[0].kind, Kind::WriteWrite);
  EXPECT_EQ(v[0].cell[0], 8); // the shared plane
  EXPECT_NE(v[0].workerA, v[0].workerB);
}

TEST(ShadowIntegration, DisjointTileCommitsAreClean) {
  FArrayBox phi1(Box::cube(16), 1);
  phi1.shadowBeginEpoch();
  const Box tileA(IntVect(0, 0, 0), IntVect(7, 15, 15));
  const Box tileB(IntVect(8, 0, 0), IntVect(15, 15, 15));
  runTeam(2, [&](int tid) {
    phi1.shadowRecordWrite(tid == 0 ? tileA : tileB, 0, 1, tid);
  });
  EXPECT_EQ(phi1.shadow().violationCount(), 0u);
}

TEST(ShadowIntegration, LegalRunnerSchedulesRunClean) {
  // End-to-end: the instrumented executors run a legal schedule twice
  // (the runner advances the epoch between evaluations) without the
  // shadow flagging anything — i.e. no throw from the runner's check.
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(16)), 16);
  LevelData phi0(dbl, kernels::kNumComp, kernels::kNumGhost);
  LevelData phi1(dbl, kernels::kNumComp, 0);
  kernels::initializeExemplar(phi0);
  core::FluxDivRunner runner(
      core::makeShiftFuse(core::ParallelGranularity::WithinBox), 2);
  EXPECT_NO_THROW(runner.run(phi0, phi1));
  EXPECT_NO_THROW(runner.run(phi0, phi1));
}

#endif // FLUXDIV_SHADOW_CHECK

} // namespace
} // namespace fluxdiv::grid
