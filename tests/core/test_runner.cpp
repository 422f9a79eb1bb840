#include "core/runner.hpp"

#include <gtest/gtest.h>

#include "core/taskpool.hpp"

#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "kernels/reference.hpp"

namespace fluxdiv::core {
namespace {

using grid::Box;
using grid::DisjointBoxLayout;
using grid::FArrayBox;
using grid::LevelData;
using grid::ProblemDomain;
using kernels::kNumComp;
using kernels::kNumGhost;

LevelData makeInitialized(const DisjointBoxLayout& dbl) {
  LevelData phi(dbl, kNumComp, kNumGhost);
  kernels::initializeExemplar(phi);
  return phi;
}

TEST(FluxDivRunner, RejectsBadThreadCount) {
  EXPECT_THROW(
      FluxDivRunner(makeBaseline(ParallelGranularity::OverBoxes), 0),
      std::invalid_argument);
}

TEST(FluxDivRunner, RejectsComponentMismatch) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(8)), 8);
  LevelData phi0(dbl, kNumComp, kNumGhost);
  LevelData wrong(dbl, 2, kNumGhost);
  FluxDivRunner runner(makeBaseline(ParallelGranularity::OverBoxes), 1);
  EXPECT_THROW(runner.run(phi0, wrong), std::invalid_argument);
  EXPECT_THROW(runner.run(wrong, phi0), std::invalid_argument);
}

TEST(FluxDivRunner, RejectsInsufficientGhosts) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(8)), 8);
  LevelData thin(dbl, kNumComp, 1);
  LevelData out(dbl, kNumComp, 1);
  FluxDivRunner runner(makeBaseline(ParallelGranularity::OverBoxes), 1);
  EXPECT_THROW(runner.run(thin, out), std::invalid_argument);
}

TEST(FluxDivRunner, RejectsInvalidTileForBox) {
  // 32^3 tiles on 8^3 boxes, under every granularity, through both entry
  // points.
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(8)), 8);
  LevelData phi0 = makeInitialized(dbl);
  LevelData out(dbl, kNumComp, kNumGhost);
  for (const ParallelGranularity par :
       {ParallelGranularity::OverBoxes, ParallelGranularity::WithinBox,
        ParallelGranularity::HybridBoxTile}) {
    FluxDivRunner runner(makeOverlapped(IntraTileSchedule::Basic, 32, par),
                         2);
    SCOPED_TRACE(runner.config().name());
    EXPECT_THROW(runner.run(phi0, out), std::invalid_argument);
    EXPECT_THROW(runner.runBox(phi0[0], out[0], phi0.validBox(0)),
                 std::invalid_argument);
  }
}

TEST(FluxDivRunner, ReplayedGraphsMatchOneThreadRun) {
  // Every registered schedule's graphs, replayed serially in each
  // adversarial order at 4 workers, against a 1-thread run. In a
  // FLUXDIV_SHADOW_CHECK build the shadow detector checks every replay.
  DisjointBoxLayout dbl(ProblemDomain(Box(grid::IntVect::zero(),
                                          grid::IntVect(31, 31, 15))),
                        16);
  ASSERT_EQ(dbl.size(), 4u);
  LevelData phi0 = makeInitialized(dbl);
  phi0.exchange();
  for (const VariantConfig& cfg : enumerateVariants(16, true)) {
    SCOPED_TRACE(cfg.name());
    LevelData expect(dbl, kNumComp, kNumGhost);
    FluxDivRunner(cfg, 1).run(phi0, expect);
    FluxDivRunner runner(cfg, 4);
    for (const ReplayOrder order : kReplayOrders) {
      SCOPED_TRACE(replayOrderName(order));
      LevelData got(dbl, kNumComp, kNumGhost);
      detail::runReplayed(runner, phi0, got, ReplayMode{order, 7});
      EXPECT_EQ(LevelData::maxAbsDiffValid(expect, got), 0.0);
    }
  }
}

TEST(FluxDivRunner, RunBoxMatchesLevelRun) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(8)), 8);
  LevelData phi0 = makeInitialized(dbl);
  LevelData viaLevel(dbl, kNumComp, kNumGhost);
  LevelData viaBox(dbl, kNumComp, kNumGhost);
  FluxDivRunner runner(makeShiftFuse(ParallelGranularity::OverBoxes), 2);
  runner.run(phi0, viaLevel);
  runner.runBox(phi0[0], viaBox[0], phi0.validBox(0));
  EXPECT_EQ(LevelData::maxAbsDiffValid(viaLevel, viaBox), 0.0);
}

TEST(FluxDivRunner, WorkspaceAccountingReflectsTableOne) {
  // Measured per-thread temporary storage must track Table I's analytic
  // footprints: baseline ~ C(N+1)^3 flux; overlapped tiles ~ tile-sized.
  const int n = 32;
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(n)), n);
  LevelData phi0 = makeInitialized(dbl);

  LevelData out1(dbl, kNumComp, kNumGhost);
  FluxDivRunner baseline(makeBaseline(ParallelGranularity::OverBoxes), 1);
  baseline.run(phi0, out1);
  // The flux temporary allocates with the padded x-pitch, so the measured
  // bytes track the padded row length; the analytic C(N+1)^3 shape is
  // otherwise unchanged.
  const double fluxBytes = kNumComp *
                           double(grid::paddedPitch(n + 1)) * (n + 1) *
                           (n + 1) * sizeof(grid::Real);
  EXPECT_NEAR(double(baseline.maxPeakWorkspaceBytes()), fluxBytes,
              0.05 * fluxBytes);

  LevelData out2(dbl, kNumComp, kNumGhost);
  FluxDivRunner ot(
      makeOverlapped(IntraTileSchedule::ShiftFuse, 8,
                     ParallelGranularity::WithinBox),
      1);
  ot.run(phi0, out2);
  // Tile-sized: far below the baseline footprint.
  EXPECT_LT(ot.maxPeakWorkspaceBytes(), fluxBytes / 8);
}

TEST(FluxDivRunner, AccumulationComposesAcrossRuns) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(8)), 8);
  LevelData phi0 = makeInitialized(dbl);
  LevelData once(dbl, kNumComp, kNumGhost);
  LevelData net(dbl, kNumComp, kNumGhost);
  FluxDivRunner runner(makeShiftFuse(ParallelGranularity::OverBoxes), 1);
  runner.run(phi0, once, 1.0);
  runner.run(phi0, net, 1.0);
  runner.run(phi0, net, -1.0); // cancels up to reassociation rounding
  for (std::size_t b = 0; b < net.size(); ++b) {
    for (int c = 0; c < kNumComp; ++c) {
      forEachCell(net.validBox(b), [&](int i, int j, int k) {
        ASSERT_NEAR(net[b](i, j, k, c), 0.0, 1e-13);
      });
    }
  }
  // and `once` holds a single application
  LevelData expected(dbl, kNumComp, kNumGhost);
  kernels::referenceFluxDiv(phi0, expected);
  EXPECT_LT(LevelData::maxAbsDiffValid(once, expected), 1e-12);
}

} // namespace
} // namespace fluxdiv::core
