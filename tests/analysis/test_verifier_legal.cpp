// Every variant the registry can produce must lower to a model the
// verifier proves legal — over multiple box sizes and worker counts,
// including a count that does not divide the box extent (ragged slabs).

#include <gtest/gtest.h>

#include "analysis/lower.hpp"
#include "analysis/verifier.hpp"
#include "core/variant.hpp"

namespace fluxdiv::analysis {
namespace {

using core::ComponentLoop;
using core::IntraTileSchedule;
using core::ParallelGranularity;
using core::ScheduleFamily;
using core::VariantConfig;

void expectLegal(const VariantConfig& cfg, int boxSize, int nThreads) {
  const Diagnostic diag =
      ScheduleVerifier{}.verify(cfg, boxSize, nThreads);
  EXPECT_TRUE(diag.ok()) << diag.message();
}

TEST(VerifierLegal, FullRegistrySweep) {
  // Tile sizes stay strictly below the box, so box 33 enumerates the same
  // variant set as box 64 (the tile-32 variants included) at a fraction
  // of the cost: the tile-4 variants' verification grows with the tile
  // count.
  int checked = 0;
  for (const int boxSize : {16, 32, 33}) {
    for (const auto& cfg :
         core::enumerateVariants(boxSize, /*includeExtensions=*/true)) {
      for (const int nThreads : {1, 4, 7, 8}) {
        expectLegal(cfg, boxSize, nThreads);
        ++checked;
      }
    }
  }
  // Guard against the registry silently shrinking: the paper grid is 4
  // families x CLO/CLI x granularities, plus tile-size/aspect extensions.
  EXPECT_GE(checked, 100);
  EXPECT_EQ(core::enumerateVariants(33, /*includeExtensions=*/true),
            core::enumerateVariants(64, /*includeExtensions=*/true));
}

// Each ScheduleFamily x ParallelGranularity pair spelled out, so a failure
// names the exact combination rather than an index into the sweep.

TEST(VerifierLegal, BaselineAllGranularities) {
  for (const auto comp : {ComponentLoop::Outside, ComponentLoop::Inside}) {
    expectLegal(core::makeBaseline(ParallelGranularity::OverBoxes, comp),
                16, 4);
    expectLegal(core::makeBaseline(ParallelGranularity::WithinBox, comp),
                16, 4);
  }
}

TEST(VerifierLegal, ShiftFuseAllGranularities) {
  for (const auto comp : {ComponentLoop::Outside, ComponentLoop::Inside}) {
    expectLegal(core::makeShiftFuse(ParallelGranularity::OverBoxes, comp),
                16, 4);
    expectLegal(core::makeShiftFuse(ParallelGranularity::WithinBox, comp),
                16, 4);
  }
}

TEST(VerifierLegal, BlockedWavefrontAllGranularities) {
  for (const auto comp : {ComponentLoop::Outside, ComponentLoop::Inside}) {
    expectLegal(
        core::makeBlockedWF(8, ParallelGranularity::OverBoxes, comp), 16,
        4);
    expectLegal(
        core::makeBlockedWF(8, ParallelGranularity::WithinBox, comp), 16,
        4);
  }
}

TEST(VerifierLegal, OverlappedTilesAllGranularities) {
  for (const auto intra :
       {IntraTileSchedule::Basic, IntraTileSchedule::ShiftFuse}) {
    for (const auto par :
         {ParallelGranularity::OverBoxes, ParallelGranularity::WithinBox,
          ParallelGranularity::HybridBoxTile}) {
      expectLegal(core::makeOverlapped(intra, 8, par), 16, 4);
    }
  }
}

TEST(VerifierLegal, RaggedWorkerCounts) {
  // Worker counts that exceed or do not divide the z extent produce empty
  // or uneven slabs; those must not trip coverage or disjointness.
  const auto base =
      core::makeBaseline(ParallelGranularity::WithinBox,
                         ComponentLoop::Inside);
  for (const int nThreads : {3, 15, 16, 23}) {
    expectLegal(base, 16, nThreads);
  }
}

TEST(VerifierLegal, LoweringRejectsRunnerInvalidConfigs) {
  // Configurations the runner would refuse must throw at lowering, not
  // produce a bogus model.
  VariantConfig tiledNoSize =
      core::makeBlockedWF(8, ParallelGranularity::WithinBox,
                          ComponentLoop::Inside);
  tiledNoSize.tileSize = 0;
  EXPECT_THROW(lowerVariant(tiledNoSize, grid::Box::cube(16), 4),
               std::invalid_argument);

  VariantConfig hybridBaseline =
      core::makeBaseline(ParallelGranularity::HybridBoxTile);
  EXPECT_THROW(lowerVariant(hybridBaseline, grid::Box::cube(16), 4),
               std::invalid_argument);

  EXPECT_THROW(
      lowerVariant(core::makeBaseline(ParallelGranularity::WithinBox),
                   grid::Box::cube(16), 0),
      std::invalid_argument);
}

TEST(VerifierLegal, ModelRecordsVariantAndGhost) {
  const ScheduleModel m = lowerVariant(
      core::makeShiftFuse(ParallelGranularity::WithinBox),
      grid::Box::cube(16), 4);
  EXPECT_FALSE(m.variant.empty());
  EXPECT_EQ(m.ghost, 2);
  EXPECT_EQ(m.valid, grid::Box::cube(16));
  // The within-box shift-fuse schedule is the per-cell wavefront: it must
  // carry a cone with all three carry dependences.
  ASSERT_FALSE(m.cones.empty());
  EXPECT_EQ(m.cones[0].deps.size(), 3u);
}

} // namespace
} // namespace fluxdiv::analysis
