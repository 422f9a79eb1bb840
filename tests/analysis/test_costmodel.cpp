// Unit tests for the static cost model: working-set orderings, traffic
// regimes, recomputation accounting, parallelism metrics, and the
// structured cost notes. Numeric agreement with the cache simulator is
// covered separately in test_costmodel_xval.cpp.

#include "analysis/costmodel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/kernelshapes.hpp"
#include "core/stepprogram.hpp"
#include "core/variant.hpp"
#include "harness/machine.hpp"
#include "kernels/exemplar.hpp"
#include "solvers/integrator.hpp"

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

/// The price the TuneDB prior ranks by: one `scheme` step over `nBoxes`
/// boxes of side `n`, RHS work at the service variant's modeled bytes
/// per cell under the typical caches.
std::vector<StepFusionCost> priceStep(solvers::Scheme scheme, int n,
                                      int nBoxes, int threads = 4,
                                      bool withBoundary = false) {
  const CostReport box = analyzeCost(
      core::makeShiftFuse(core::ParallelGranularity::WithinBox), n,
      threads, CacheSpec::typical());
  return analyzeStepFusion(
      solvers::buildStepProgram(scheme, /*dt=*/1.0, 1, withBoundary), box,
      n, nBoxes);
}

TEST(StepFusion, ComesBackInFuseModeOrderWithValidRanks) {
  const auto costs = priceStep(solvers::Scheme::RK4, /*n=*/32,
                               /*nBoxes=*/8);
  ASSERT_EQ(costs.size(), 3u);
  EXPECT_EQ(costs[0].fuse, core::StepFuse::Eager);
  EXPECT_EQ(costs[1].fuse, core::StepFuse::Fused);
  EXPECT_EQ(costs[2].fuse, core::StepFuse::CommAvoid);
  std::vector<int> ranks;
  for (const auto& c : costs) {
    ranks.push_back(c.rank);
    EXPECT_GT(c.costBytes, 0.0);
    EXPECT_GE(c.dispatches, 1);
  }
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<int>{1, 2, 3}));
}

TEST(StepFusion, CommAvoidDeepensOneExchangeAndRecomputes) {
  const int evals = 4; // RK4
  const auto costs = priceStep(solvers::Scheme::RK4, 32, 8);
  const auto& ca = costs[2];
  EXPECT_EQ(ca.exchanges, 1);
  EXPECT_EQ(ca.exchangeDepth, kernels::kNumGhost * evals);
  EXPECT_GT(ca.recomputeCells, 0.0);
  EXPECT_GT(ca.recomputeFraction, 0.0);
  EXPECT_EQ(ca.dispatches, 1);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(costs[i].exchanges, evals) << i;
    EXPECT_EQ(costs[i].exchangeDepth, kernels::kNumGhost) << i;
    EXPECT_EQ(costs[i].recomputeCells, 0.0) << i;
  }
  // Stage s recomputes a width g(R-1-s) shell: sum the closed form.
  double expectCells = 0;
  const double n = 32;
  for (int s = 0; s < evals; ++s) {
    const double w = kernels::kNumGhost * (evals - 1 - s);
    expectCells += ((n + 2 * w) * (n + 2 * w) * (n + 2 * w) - n * n * n) * 8;
  }
  EXPECT_DOUBLE_EQ(ca.recomputeCells, expectCells);
  EXPECT_DOUBLE_EQ(ca.rhsCells, costs[1].rhsCells + expectCells);
  // The deep halo moves more bytes than the per-stage halos combined —
  // the fixed per-exchange cost is what comm-avoiding actually saves.
  EXPECT_GT(ca.exchangeBytes, costs[1].exchangeBytes);
  EXPECT_LT(ca.alphaBytes, costs[1].alphaBytes);
}

TEST(StepFusion, ChargesTheWorkEachModeExecutes) {
  // Midpoint: u -> k (RHS), mid = u, mid += k/2, k = f(mid), u += k.
  const double n = 16;
  const double boxes = 8;
  const double field = kernels::kNumComp * 8.0;
  const CostReport box = analyzeCost(
      core::makeShiftFuse(core::ParallelGranularity::WithinBox), 16, 4,
      CacheSpec::typical());
  const auto costs = priceStep(solvers::Scheme::Midpoint, 16, 8);
  const double valid = n * n * n * boxes;
  const double wide = (n + 4) * (n + 4) * (n + 4) * boxes; // w = g = 2
  for (int i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(costs[i].rhsCells, 2 * valid) << i;
    EXPECT_DOUBLE_EQ(costs[i].rhsBytes, 2 * valid * box.bytesPerCell) << i;
    // copy (2 streams) + two axpys (3 streams each).
    EXPECT_DOUBLE_EQ(costs[i].combineBytes, 8 * valid * field) << i;
    EXPECT_EQ(costs[i].copyBytes, 0.0) << i;
  }
  const auto& ca = costs[2];
  // Stage 0 and the combines feeding stage 1 run on valid.grow(g).
  EXPECT_DOUBLE_EQ(ca.rhsCells, wide + valid);
  EXPECT_DOUBLE_EQ(ca.combineBytes, (5 * wide + 3 * valid) * field);
  EXPECT_DOUBLE_EQ(ca.copyBytes, 2 * 2 * valid * field);
  for (const auto& c : costs) {
    EXPECT_DOUBLE_EQ(c.costBytes, c.alphaBytes + c.exchangeBytes +
                                      c.rhsBytes + c.combineBytes +
                                      c.copyBytes);
  }
}

TEST(StepFusion, DispatchCountsMirrorTheExecutors) {
  // Eager runs one level-wide sweep per recorded op: SSPRK3 records 3
  // exchanges, 3 RHS evaluations and 8 stage combines, plus 3 BC fills
  // with a boundary.
  const auto costs = priceStep(solvers::Scheme::SSPRK3, 16, 4);
  EXPECT_EQ(costs[0].dispatches, 14);
  EXPECT_EQ(costs[1].dispatches, 1); // whole step is one graph
  EXPECT_EQ(costs[2].dispatches, 1);
  const auto bc = priceStep(solvers::Scheme::SSPRK3, 16, 4, 4,
                            /*withBoundary=*/true);
  EXPECT_EQ(bc[0].dispatches, 17);
}

TEST(StepFusion, InfeasibleDeepHaloFallsBackToFusedStructure) {
  // RK4 needs an 8-deep halo; a 4^3 box cannot host it — the analyzer
  // must price what the executor would actually run (the Fused fallback).
  const auto costs = priceStep(solvers::Scheme::RK4, /*n=*/4, 8);
  const auto& ca = costs[2];
  EXPECT_EQ(ca.exchanges, 4);
  EXPECT_EQ(ca.exchangeDepth, kernels::kNumGhost);
  EXPECT_EQ(ca.recomputeCells, 0.0);
  EXPECT_EQ(ca.exchangeBytes, costs[1].exchangeBytes);
  EXPECT_EQ(ca.copyBytes, 0.0);
  EXPECT_EQ(ca.costBytes, costs[1].costBytes);
  EXPECT_TRUE(ca.notes.empty());
}

TEST(StepFusion, BoxSizeDecidesTheCommAvoidingTrade) {
  // Small boxes are latency-bound: one deep exchange moves fewer halo and
  // latency bytes than the per-stage exchanges. But the RHS work it
  // recomputes outweighs that saving (midpoint on 8 x 16^3 measured
  // fused/comm-avoiding 0.56 at 1 thread, BENCH_rkstep.json), so Fused
  // ranks first. Large boxes are volume-bound: even the exchange side is
  // a loss, and the DeepHaloRecompute note names the condition.
  const auto small = priceStep(solvers::Scheme::Midpoint, 16, 8);
  EXPECT_LT(small[2].exchangeBytes + small[2].alphaBytes,
            small[1].exchangeBytes + small[1].alphaBytes);
  EXPECT_GT(small[2].costBytes, small[1].costBytes);
  EXPECT_EQ(small[1].rank, 1);
  EXPECT_EQ(small[2].notes.size(), 1u);

  const auto big = priceStep(solvers::Scheme::Midpoint, 128, 8);
  EXPECT_GT(big[2].exchangeBytes + big[2].alphaBytes,
            big[1].exchangeBytes + big[1].alphaBytes);
  EXPECT_GT(big[2].costBytes, big[1].costBytes);
  ASSERT_EQ(big[2].notes.size(), 1u);
  const CostNote& note = big[2].notes.front();
  EXPECT_EQ(note.kind, CostNoteKind::DeepHaloRecompute);
  EXPECT_GT(note.actualBytes, note.limitBytes);
  const std::string msg = note.message();
  EXPECT_NE(msg.find("deep-halo-recompute"), std::string::npos) << msg;
  EXPECT_NE(msg.find("128^3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("comm-avoiding unprofitable"), std::string::npos)
      << msg;
}

TEST(StepFusion, NoteFiresExactlyWhenCommAvoidPricesWorseThanFused) {
  for (const solvers::Scheme scheme : solvers::kSchemes) {
    for (const int n : {8, 16, 32, 64, 128}) {
      const auto costs = priceStep(scheme, n, 4);
      const bool feasible =
          kernels::kNumGhost * solvers::schemeRhsEvals(scheme) <= n;
      const bool worse = costs[2].costBytes > costs[1].costBytes;
      EXPECT_EQ(costs[2].notes.size() == 1u, feasible && worse)
          << solvers::schemeName(scheme) << " n " << n;
    }
  }
}

TEST(StepFusion, RankAgreesWithMeasuredWinners) {
  // fused / comm-avoiding seconds per step, copied from BENCH_rkstep.json
  // (4-core Xeon, gcc 12 Release; bench_rk_step --fuse fused,commavoid).
  struct Row {
    const char* scheme;
    int boxSize;
    int nBoxes;
    int threads;
    double fusedOverCommAvoid;
  };
  const Row rows[] = {
      {"euler", 8, 2, 1, 1.00}, {"euler", 8, 2, 4, 0.96},
      {"euler", 12, 2, 1, 0.92}, {"euler", 12, 2, 4, 0.83},
      {"euler", 16, 2, 1, 0.77}, {"euler", 16, 2, 4, 0.80},
      {"euler", 24, 2, 1, 0.83}, {"euler", 24, 2, 4, 0.74},
      {"euler", 8, 4, 1, 0.85}, {"euler", 8, 4, 4, 0.92},
      {"euler", 12, 4, 1, 0.84}, {"euler", 12, 4, 4, 0.77},
      {"euler", 16, 4, 1, 0.85}, {"euler", 16, 4, 4, 0.78},
      {"euler", 24, 4, 1, 0.83}, {"euler", 24, 4, 4, 0.68},
      {"euler", 8, 8, 1, 0.85}, {"euler", 8, 8, 4, 1.02},
      {"euler", 12, 8, 1, 0.72}, {"euler", 12, 8, 4, 0.86},
      {"euler", 16, 8, 1, 0.86}, {"euler", 16, 8, 4, 0.92},
      {"euler", 24, 8, 1, 0.80}, {"euler", 24, 8, 4, 1.04},
      {"midpoint", 8, 2, 1, 0.64}, {"midpoint", 8, 2, 4, 0.80},
      {"midpoint", 12, 2, 1, 0.68}, {"midpoint", 12, 2, 4, 0.77},
      {"midpoint", 16, 2, 1, 0.59}, {"midpoint", 16, 2, 4, 0.86},
      {"midpoint", 24, 2, 1, 0.78}, {"midpoint", 24, 2, 4, 0.79},
      {"midpoint", 8, 4, 1, 0.67}, {"midpoint", 8, 4, 4, 0.74},
      {"midpoint", 12, 4, 1, 0.56}, {"midpoint", 12, 4, 4, 0.80},
      {"midpoint", 16, 4, 1, 0.78}, {"midpoint", 16, 4, 4, 0.77},
      {"midpoint", 24, 4, 1, 0.85}, {"midpoint", 24, 4, 4, 0.88},
      {"midpoint", 8, 8, 1, 0.53}, {"midpoint", 8, 8, 4, 1.00},
      {"midpoint", 12, 8, 1, 0.68}, {"midpoint", 12, 8, 4, 0.99},
      {"midpoint", 16, 8, 1, 0.56}, {"midpoint", 16, 8, 4, 0.90},
      {"midpoint", 24, 8, 1, 0.70}, {"midpoint", 24, 8, 4, 0.85},
      {"ssprk3", 8, 2, 1, 0.47}, {"ssprk3", 8, 2, 4, 0.56},
      {"ssprk3", 12, 2, 1, 0.66}, {"ssprk3", 12, 2, 4, 0.64},
      {"ssprk3", 16, 2, 1, 0.53}, {"ssprk3", 16, 2, 4, 0.57},
      {"ssprk3", 24, 2, 1, 0.61}, {"ssprk3", 24, 2, 4, 0.58},
      {"ssprk3", 8, 4, 1, 0.39}, {"ssprk3", 8, 4, 4, 0.64},
      {"ssprk3", 12, 4, 1, 0.81}, {"ssprk3", 12, 4, 4, 0.69},
      {"ssprk3", 16, 4, 1, 0.53}, {"ssprk3", 16, 4, 4, 0.63},
      {"ssprk3", 24, 4, 1, 0.52}, {"ssprk3", 24, 4, 4, 0.85},
      {"ssprk3", 8, 8, 1, 0.47}, {"ssprk3", 8, 8, 4, 0.62},
      {"ssprk3", 12, 8, 1, 0.53}, {"ssprk3", 12, 8, 4, 0.68},
      {"ssprk3", 16, 8, 1, 0.59}, {"ssprk3", 16, 8, 4, 0.64},
      {"ssprk3", 24, 8, 1, 0.49}, {"ssprk3", 24, 8, 4, 0.74},
      {"rk4", 8, 2, 1, 0.32}, {"rk4", 8, 2, 4, 0.44}, {"rk4", 12, 2, 1, 0.41},
      {"rk4", 12, 2, 4, 0.48}, {"rk4", 16, 2, 1, 0.42},
      {"rk4", 16, 2, 4, 0.59}, {"rk4", 24, 2, 1, 0.59},
      {"rk4", 24, 2, 4, 0.53}, {"rk4", 8, 4, 1, 0.35}, {"rk4", 8, 4, 4, 0.54},
      {"rk4", 12, 4, 1, 0.29}, {"rk4", 12, 4, 4, 0.58},
      {"rk4", 16, 4, 1, 0.47}, {"rk4", 16, 4, 4, 0.65},
      {"rk4", 24, 4, 1, 0.47}, {"rk4", 24, 4, 4, 0.70},
      {"rk4", 8, 8, 1, 0.31}, {"rk4", 8, 8, 4, 0.51}, {"rk4", 12, 8, 1, 0.37},
      {"rk4", 12, 8, 4, 0.43}, {"rk4", 16, 8, 1, 0.29},
      {"rk4", 16, 8, 4, 0.57}, {"rk4", 24, 8, 1, 0.40},
      {"rk4", 24, 8, 4, 0.62},
  };
  int decided = 0;
  for (const Row& r : rows) {
    if (r.fusedOverCommAvoid >= 0.9 && r.fusedOverCommAvoid <= 1.1) {
      continue; // within noise: either rank is acceptable
    }
    solvers::Scheme scheme{};
    ASSERT_TRUE(solvers::parseScheme(r.scheme, scheme)) << r.scheme;
    const auto costs = priceStep(scheme, r.boxSize, r.nBoxes, r.threads);
    const core::StepFuse winner = r.fusedOverCommAvoid < 1.0
                                      ? core::StepFuse::Fused
                                      : core::StepFuse::CommAvoid;
    const auto first = std::find_if(
        costs.begin(), costs.end(),
        [](const StepFusionCost& c) { return c.rank == 1; });
    ASSERT_NE(first, costs.end());
    EXPECT_EQ(first->fuse, winner)
        << r.scheme << " " << r.nBoxes << " x " << r.boxSize << "^3 at "
        << r.threads << " threads: measured fused/comm-avoiding "
        << r.fusedOverCommAvoid;
    ++decided;
  }
  EXPECT_GT(decided, 0);
}

} // namespace
} // namespace fluxdiv::analysis
