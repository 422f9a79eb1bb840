// Unit tests for the static cost model: working-set orderings, traffic
// regimes, recomputation accounting, parallelism metrics, and the
// structured cost notes, and the lowering (analysis/lower.hpp) they read.
// Numeric agreement with the cache simulator is covered separately in
// test_costmodel_xval.cpp.

#include "analysis/costmodel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "analysis/lower.hpp"
#include "core/kernelshapes.hpp"
#include "core/stepprogram.hpp"
#include "core/variant.hpp"
#include "harness/machine.hpp"

namespace fluxdiv::analysis {
namespace {

CacheSpec spec(std::size_t l2, std::size_t llc) {
  CacheSpec s;
  s.l2Bytes = l2;
  s.llcBytes = llc;
  return s;
}

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * 1024;

bool hasNote(const CostReport& r, CostNoteKind kind) {
  return std::any_of(r.notes.begin(), r.notes.end(),
                     [&](const CostNote& n) { return n.kind == kind; });
}

TEST(CostModel, LoweringRejectsRunnerInvalidConfigs) {
  // Configurations the runner would refuse must throw at lowering, not
  // produce a bogus model.
  core::VariantConfig tiledNoSize =
      core::makeBlockedWF(8, core::ParallelGranularity::WithinBox,
                          core::ComponentLoop::Inside);
  tiledNoSize.tileSize = 0;
  EXPECT_THROW(lowerVariant(tiledNoSize, grid::Box::cube(16), 4),
               std::invalid_argument);

  const core::VariantConfig hybridBaseline =
      core::makeBaseline(core::ParallelGranularity::HybridBoxTile);
  EXPECT_THROW(lowerVariant(hybridBaseline, grid::Box::cube(16), 4),
               std::invalid_argument);

  EXPECT_THROW(
      lowerVariant(core::makeBaseline(core::ParallelGranularity::WithinBox),
                   grid::Box::cube(16), 0),
      std::invalid_argument);
}

TEST(CostModel, LoweredModelRecordsVariantAndBox) {
  const ScheduleModel m = lowerVariant(
      core::makeShiftFuse(core::ParallelGranularity::WithinBox),
      grid::Box::cube(16), 4);
  EXPECT_FALSE(m.variant.empty());
  EXPECT_EQ(m.valid, grid::Box::cube(16));
  // The within-box shift-fuse schedule is the per-cell wavefront: one
  // cone over the box's cells, fronts along x + y + z.
  ASSERT_EQ(m.cones.size(), 1u);
  EXPECT_EQ(m.cones[0].lattice, grid::Box::cube(16));
  EXPECT_EQ(m.cones[0].skew, grid::IntVect::unit(1));
}

TEST(CostModel, ReportBasicsAreConsistent) {
  const auto rep = analyzeCost(
      core::makeBaseline(core::ParallelGranularity::OverBoxes), 16, 1,
      spec(256 * kKiB, 6 * kMiB));
  EXPECT_EQ(rep.validCells, 16 * 16 * 16);
  EXPECT_GT(rep.workingSetBytes, 0);
  EXPECT_GT(rep.trafficBytes, 0);
  EXPECT_GT(rep.compulsoryBytes, 0);
  EXPECT_NEAR(rep.bytesPerCell * static_cast<double>(rep.validCells),
              rep.trafficBytes, 1.0);
  ASSERT_FALSE(rep.phases.empty());
  double maxPhase = 0;
  for (const auto& p : rep.phases) {
    maxPhase = std::max(maxPhase, p.workingSetBytes);
  }
  EXPECT_DOUBLE_EQ(rep.workingSetBytes, maxPhase);
}

TEST(CostModel, FusionShrinksWorkingSetAndTraffic) {
  // The paper's core claim, statically: shift-fuse needs fewer distinct
  // bytes live and moves less DRAM traffic than the baseline series of
  // loops, which streams full flux temporaries between loop nests.
  const CacheSpec s = spec(256 * kKiB, 512 * kKiB);
  const auto base = analyzeCost(
      core::makeBaseline(core::ParallelGranularity::OverBoxes,
                         core::ComponentLoop::Inside),
      32, 1, s);
  const auto fused = analyzeCost(
      core::makeShiftFuse(core::ParallelGranularity::OverBoxes,
                          core::ComponentLoop::Inside),
      32, 1, s);
  EXPECT_LT(fused.workingSetBytes, base.workingSetBytes);
  EXPECT_LT(fused.trafficBytes, base.trafficBytes);
}

TEST(CostModel, BlockedTilesShrinkConcurrentWorkingSet) {
  // Within-box blocked wavefront holds only a front of tiles live, far
  // below the whole-box working set of the serial schedule.
  const CacheSpec s = spec(256 * kKiB, 6 * kMiB);
  const auto serial = analyzeCost(
      core::makeBaseline(core::ParallelGranularity::OverBoxes), 32, 1, s);
  const auto tiled = analyzeCost(
      core::makeBlockedWF(8, core::ParallelGranularity::WithinBox,
                          core::ComponentLoop::Inside),
      32, 4, s);
  EXPECT_LT(tiled.workingSetBytes, serial.workingSetBytes);
  EXPECT_LT(tiled.maxItemBytes, tiled.workingSetBytes);
}

TEST(CostModel, FitsInCacheRegimeLandsNearCompulsoryFloor) {
  // With an LLC larger than every distinct byte the schedule touches, one
  // evaluation fetches each byte once: traffic close to the floor, and
  // far below the same schedule priced against a small cache.
  const auto big = analyzeCost(
      core::makeBaseline(core::ParallelGranularity::OverBoxes), 32, 1,
      spec(256 * kKiB, 64 * kMiB));
  EXPECT_LT(big.trafficBytes, 1.2 * big.compulsoryBytes);
  const auto small = analyzeCost(
      core::makeBaseline(core::ParallelGranularity::OverBoxes), 32, 1,
      spec(256 * kKiB, 512 * kKiB));
  EXPECT_GT(small.trafficBytes, 2.0 * big.trafficBytes);
}

TEST(CostModel, CapacityBoundNoteNamesThePhase) {
  const auto rep = analyzeCost(
      core::makeBaseline(core::ParallelGranularity::OverBoxes), 32, 1,
      spec(64 * kKiB, 256 * kKiB));
  EXPECT_TRUE(rep.capacityBound);
  ASSERT_TRUE(hasNote(rep, CostNoteKind::CapacityBound));
  for (const auto& n : rep.notes) {
    if (n.kind == CostNoteKind::CapacityBound) {
      EXPECT_FALSE(n.where.empty());
      EXPECT_GT(n.actualBytes, n.limitBytes);
      EXPECT_NE(n.message().find("capacity-bound"), std::string::npos);
      EXPECT_NE(n.message().find(n.where), std::string::npos);
    }
  }
  const auto fits = analyzeCost(
      core::makeBaseline(core::ParallelGranularity::OverBoxes), 16, 1,
      spec(256 * kKiB, 64 * kMiB));
  EXPECT_FALSE(fits.capacityBound);
  EXPECT_FALSE(hasNote(fits, CostNoteKind::CapacityBound));
}

TEST(CostModel, RecomputeZeroOutsideOverlappedTiles) {
  const CacheSpec s = spec(256 * kKiB, 6 * kMiB);
  for (const auto& cfg :
       {core::makeBaseline(core::ParallelGranularity::OverBoxes),
        core::makeShiftFuse(core::ParallelGranularity::WithinBox),
        core::makeBlockedWF(8, core::ParallelGranularity::WithinBox,
                            core::ComponentLoop::Inside)}) {
    const auto rep = analyzeCost(cfg, 32, 4, s);
    EXPECT_DOUBLE_EQ(rep.recomputeCells, 0) << rep.variant;
    EXPECT_DOUBLE_EQ(rep.recomputeFraction, 0) << rep.variant;
  }
}

TEST(CostModel, RecomputeGrowsAsOverlappedTilesShrink) {
  // Halo recomputation is a surface-to-volume effect: smaller tiles
  // duplicate a larger fraction of the flux evaluations.
  const CacheSpec s = spec(256 * kKiB, 6 * kMiB);
  double prev = 0;
  for (const int tile : {16, 8, 4}) {
    const auto rep = analyzeCost(
        core::makeOverlapped(core::IntraTileSchedule::Basic, tile,
                             core::ParallelGranularity::OverBoxes),
        32, 1, s);
    EXPECT_GT(rep.recomputeFraction, prev) << rep.variant;
    EXPECT_LT(rep.recomputeFraction, 1.0) << rep.variant;
    prev = rep.recomputeFraction;
  }
}

TEST(CostModel, RecomputeIndependentOfParallelGranularity) {
  // The duplicated volume is a property of the tiling, not of whether
  // tiles run serially in one item or as concurrent items.
  const CacheSpec s = spec(256 * kKiB, 6 * kMiB);
  const auto serial = analyzeCost(
      core::makeOverlapped(core::IntraTileSchedule::Basic, 8,
                           core::ParallelGranularity::OverBoxes),
      32, 1, s);
  const auto parallel = analyzeCost(
      core::makeOverlapped(core::IntraTileSchedule::Basic, 8,
                           core::ParallelGranularity::WithinBox),
      32, 4, s);
  EXPECT_NEAR(serial.recomputeFraction, parallel.recomputeFraction, 1e-12);
}

TEST(CostModel, HighRecomputeNoteAboveThreshold) {
  // 4^3 tiles on a 32^3 box duplicate ~40% of the flux evaluations —
  // well above the note threshold; 16^3 tiles stay below it.
  const CacheSpec s = spec(256 * kKiB, 6 * kMiB);
  const auto small = analyzeCost(
      core::makeOverlapped(core::IntraTileSchedule::Basic, 4,
                           core::ParallelGranularity::OverBoxes),
      32, 1, s);
  EXPECT_TRUE(hasNote(small, CostNoteKind::HighRecompute));
  const auto large = analyzeCost(
      core::makeOverlapped(core::IntraTileSchedule::Basic, 16,
                           core::ParallelGranularity::OverBoxes),
      32, 1, s);
  EXPECT_FALSE(hasNote(large, CostNoteKind::HighRecompute));
}

TEST(CostModel, ParallelismMetricsDistinguishSchedules) {
  const CacheSpec s = spec(256 * kKiB, 6 * kMiB);
  const auto serial = analyzeCost(
      core::makeBaseline(core::ParallelGranularity::OverBoxes), 32, 1, s);
  EXPECT_EQ(serial.maxConcurrency, 1);
  EXPECT_EQ(serial.barrierCount, 1);
  EXPECT_EQ(serial.frontCount, 0);

  const auto ot = analyzeCost(
      core::makeOverlapped(core::IntraTileSchedule::ShiftFuse, 8,
                           core::ParallelGranularity::WithinBox),
      32, 4, s);
  EXPECT_EQ(ot.maxConcurrency, 4 * 4 * 4); // every tile is independent
  EXPECT_EQ(ot.barrierCount, 1);

  const auto wf = analyzeCost(
      core::makeShiftFuse(core::ParallelGranularity::WithinBox), 32, 4, s);
  EXPECT_GT(wf.frontCount, 0);
  EXPECT_GT(wf.maxConcurrency, 1);

  const auto bwf = analyzeCost(
      core::makeBlockedWF(8, core::ParallelGranularity::WithinBox,
                          core::ComponentLoop::Inside),
      32, 4, s);
  EXPECT_GT(bwf.barrierCount, 1); // one barrier per tile front
  EXPECT_GT(bwf.avgConcurrency, 1.0);
}

TEST(CostModel, WorkerCountBoundsConcurrentScratch) {
  // Available concurrency is thousands of tiles, but scratch is only held
  // by executing workers: the phase working set must scale with nWorkers,
  // not with the item count.
  const CacheSpec s = spec(256 * kKiB, 6 * kMiB);
  const auto cfg = core::makeOverlapped(
      core::IntraTileSchedule::ShiftFuse, 8,
      core::ParallelGranularity::WithinBox);
  const auto few = analyzeCost(cfg, 32, 2, s);
  const auto many = analyzeCost(cfg, 32, 32, s);
  EXPECT_LT(few.workingSetBytes, many.workingSetBytes);
  EXPECT_EQ(few.maxConcurrency, many.maxConcurrency);
}

TEST(CostModel, CacheSpecFromMachineUsesProbedLevels) {
  harness::MachineInfo info;
  info.caches = {{1, "Data", 32 * kKiB, 64, 8},
                 {2, "Unified", 512 * kKiB, 64, 8},
                 {3, "Unified", 4 * kMiB, 64, 16}};
  const CacheSpec s = CacheSpec::fromMachine(info);
  EXPECT_EQ(s.l2Bytes, 512 * kKiB);
  EXPECT_EQ(s.llcBytes, 4 * kMiB);
  EXPECT_EQ(s.lineBytes, 64u);
}

TEST(CostModel, PaddedPitchInflatesWorkingSetsButNotTraffic) {
  // Pricing the padded fab allocation (advisor --pad) rounds every
  // region's x-extent up to the pad multiple: working sets can only grow.
  // Traffic is a logical-bytes prediction and must be untouched — pad
  // lanes are never referenced, and the CacheSim oracle replays a dense
  // trace (the xval tolerance is pinned at xPadDoubles == 1).
  const CacheSpec dense = spec(256 * kKiB, 6 * kMiB);
  CacheSpec padded = dense;
  padded.xPadDoubles = 8;
  for (const auto& cfg :
       {core::makeBaseline(core::ParallelGranularity::OverBoxes),
        core::makeShiftFuse(core::ParallelGranularity::OverBoxes,
                            core::ComponentLoop::Inside),
        core::makeBlockedWF(4, core::ParallelGranularity::OverBoxes,
                            core::ComponentLoop::Inside),
        core::makeOverlapped(core::IntraTileSchedule::ShiftFuse, 4,
                             core::ParallelGranularity::OverBoxes)}) {
    const auto d = analyzeCost(cfg, 12, 1, dense);
    const auto p = analyzeCost(cfg, 12, 1, padded);
    EXPECT_GE(p.workingSetBytes, d.workingSetBytes) << cfg.name();
    EXPECT_GT(p.workingSetBytes, d.workingSetBytes)
        << cfg.name() << ": 12-wide extents must actually round up";
    EXPECT_GE(p.maxItemBytes, d.maxItemBytes) << cfg.name();
    // Pad-lane growth is bounded by one pad stretch per x-row.
    EXPECT_LE(p.workingSetBytes, 2.0 * d.workingSetBytes) << cfg.name();
    EXPECT_DOUBLE_EQ(p.trafficBytes, d.trafficBytes) << cfg.name();
    EXPECT_DOUBLE_EQ(p.recomputeCells, d.recomputeCells) << cfg.name();
  }
}

TEST(CostModel, PaddedWorkingSetIsMonotoneInThePadMultiple) {
  const auto cfg = core::makeBaseline(core::ParallelGranularity::OverBoxes);
  double prev = 0;
  for (const int pad : {1, 2, 4, 8, 16}) {
    CacheSpec s = spec(256 * kKiB, 6 * kMiB);
    s.xPadDoubles = pad;
    const double ws = analyzeCost(cfg, 12, 1, s).workingSetBytes;
    EXPECT_GE(ws, prev) << "pad " << pad;
    prev = ws;
  }
}

TEST(CostModel, CacheSpecFromMachineSurvivesFailedDetection) {
  // A machine whose cache probe failed entirely must still yield usable
  // capacities (the documented defaults), never zero.
  const CacheSpec s = CacheSpec::fromMachine(harness::MachineInfo{});
  EXPECT_GT(s.l2Bytes, 0u);
  EXPECT_EQ(s.llcBytes, 8 * kMiB);
}

TEST(CostModel, LevelPoliciesComeBackInRegistryOrder) {
  const auto costs = analyzeLevelPolicies(
      core::makeBaseline(core::ParallelGranularity::WithinBox), 32, 8, 4,
      CacheSpec::typical());
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_EQ(costs[0].policy, core::LevelPolicy::BoxSequential);
  EXPECT_EQ(costs[1].policy, core::LevelPolicy::BoxParallel);
  for (const auto& c : costs) {
    EXPECT_EQ(c.nBoxes, 8);
    EXPECT_GT(c.taskCount, 0);
    EXPECT_GE(c.depth, 1);
    EXPECT_GE(c.maxConcurrency, 1);
    EXPECT_GE(c.avgConcurrency, 1.0);
    EXPECT_GT(c.predictedSpeedup, 0.0);
  }
}

TEST(CostModel, LevelPolicySequentialMirrorsPerBoxBarriers) {
  const auto cfg = core::makeBaseline(core::ParallelGranularity::WithinBox);
  const CostReport box = analyzeCost(cfg, 32, 4, CacheSpec::typical());
  const auto costs =
      analyzeLevelPolicies(cfg, 32, 8, 4, CacheSpec::typical());
  EXPECT_EQ(costs[0].taskCount, 8);
  EXPECT_EQ(costs[0].depth, 8);
  EXPECT_EQ(costs[0].barrierCount, 8 * box.barrierCount);
  EXPECT_EQ(costs[0].maxConcurrency, box.maxConcurrency);
  EXPECT_EQ(costs[0].predictedSpeedup, 1.0)
      << "sequential is its own baseline";
}

TEST(CostModel, LevelPolicyParallelIsOneJoinOfNBoxTasks) {
  // 16^3 boxes have 12^3 interiors: one logical tile, one task per box.
  const auto costs = analyzeLevelPolicies(
      core::makeShiftFuse(core::ParallelGranularity::WithinBox), 16, 16, 4,
      CacheSpec::typical());
  EXPECT_EQ(costs[1].taskCount, 16);
  EXPECT_EQ(costs[1].depth, 1);
  EXPECT_EQ(costs[1].maxConcurrency, 16);
  EXPECT_EQ(costs[1].barrierCount, 1);
}

TEST(CostModel, LevelPolicyParallelCountsBoxTimesLogicalTiles) {
  // Every family runs one task per logical tile of each box, the tiles
  // the step-graph lowering cuts: a 64^3 box has a 60^3 interior, 4 x 4
  // x-long tiles; a 32^3 box 2 x 2.
  for (const core::VariantConfig& cfg : core::representativeFamilies(8)) {
    for (const auto& [boxSize, tiles] :
         {std::pair{64, 16}, std::pair{32, 4}}) {
      ASSERT_EQ(core::logicalTiles(grid::Box::cube(boxSize)).size(),
                static_cast<std::size_t>(tiles));
      const auto costs =
          analyzeLevelPolicies(cfg, boxSize, 2, 4, CacheSpec::typical());
      EXPECT_EQ(costs[1].taskCount, 2 * tiles) << cfg.name();
      EXPECT_EQ(costs[1].maxConcurrency, 2 * tiles) << cfg.name();
      EXPECT_EQ(costs[1].depth, 1) << cfg.name();
      EXPECT_EQ(costs[0].taskCount, 2) << cfg.name();
    }
  }
}

TEST(CostModel, LevelPolicyParallelSpeedupCappedByThreads) {
  // 64 boxes on 8 threads: box-parallel usable concurrency is quantized
  // to exactly 8-wide rounds, so the predicted speedup never exceeds the
  // thread count (and a P>=Box-style config gains nothing sequentially).
  const auto costs = analyzeLevelPolicies(
      core::makeBaseline(core::ParallelGranularity::OverBoxes), 32, 64, 8,
      CacheSpec::typical());
  EXPECT_LE(costs[1].predictedSpeedup, 8.0 + 1e-12);
  EXPECT_GE(costs[1].predictedSpeedup, 1.0);
}

} // namespace
} // namespace fluxdiv::analysis
