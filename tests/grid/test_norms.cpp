#include "grid/norms.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace fluxdiv::grid {
namespace {

LevelData makeLevel() {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(8)), 4);
  LevelData ld(dbl, 2, 1);
  for (std::size_t b = 0; b < ld.size(); ++b) {
    forEachCell(ld.validBox(b), [&](int i, int j, int k) {
      ld[b](i, j, k, 0) = (i + j + k) % 2 == 0 ? 1.0 : -1.0;
      ld[b](i, j, k, 1) = 3.0;
    });
  }
  return ld;
}

TEST(Norms, SumCancelsAlternatingField) {
  LevelData ld = makeLevel();
  EXPECT_EQ(levelSum(ld, 0), 0.0);
  EXPECT_EQ(levelSum(ld, 1), 3.0 * 512);
}

TEST(Norms, L1CountsMagnitudes) {
  LevelData ld = makeLevel();
  EXPECT_EQ(levelNormL1(ld, 0), 512.0);
  EXPECT_EQ(levelNormL1(ld, 1), 3.0 * 512);
}

TEST(Norms, L2OfConstantField) {
  LevelData ld = makeLevel();
  EXPECT_NEAR(levelNormL2(ld, 1), 3.0 * std::sqrt(512.0), 1e-12);
  EXPECT_NEAR(levelNormL2(ld, 0), std::sqrt(512.0), 1e-12);
}

TEST(Norms, InfPicksLargestMagnitude) {
  LevelData ld = makeLevel();
  EXPECT_EQ(levelNormInf(ld, 1), 3.0);
  // Box 3 owns [4..7]x[4..7]x[0..3]; poke a cell inside its valid region.
  ld[3](IntVect(5, 5, 1), 0) = -7.25;
  EXPECT_EQ(levelNormInf(ld, 0), 7.25);
}

TEST(Norms, InfPropagatesNaN) {
  LevelData ld = makeLevel();
  // A NaN before a larger magnitude, then one after it: either way the
  // max norm is NaN.
  ld[0](IntVect(0, 0, 0), 0) = std::numeric_limits<Real>::quiet_NaN();
  ld[3](IntVect(5, 5, 1), 0) = -7.25;
  EXPECT_TRUE(std::isnan(levelNormInf(ld, 0)));
  ld[0](IntVect(0, 0, 0), 0) = 1.0;
  ld[ld.size() - 1](ld.validBox(ld.size() - 1).hi(), 0) =
      std::numeric_limits<Real>::quiet_NaN();
  EXPECT_TRUE(std::isnan(levelNormInf(ld, 0)));
}

TEST(Norms, GhostCellsAreExcluded) {
  LevelData ld = makeLevel();
  // Poison a ghost cell; no norm may see it.
  ld[0](IntVect(-1, 0, 0), 0) = 1e9;
  EXPECT_LT(levelNormInf(ld, 0), 2.0);
  EXPECT_EQ(levelNormL1(ld, 0), 512.0);
}

TEST(Norms, LevelSumsCoversAllComponents) {
  LevelData ld = makeLevel();
  const auto sums = levelSums(ld);
  EXPECT_EQ(sums[0], 0.0);
  EXPECT_EQ(sums[1], 3.0 * 512);
}

TEST(Norms, ComponentRangeChecked) {
  LevelData ld = makeLevel();
  EXPECT_THROW((void)levelSum(ld, 2), std::out_of_range);
  EXPECT_THROW((void)levelNormInf(ld, -1), std::out_of_range);
}

} // namespace
} // namespace fluxdiv::grid
