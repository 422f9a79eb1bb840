#include "grid/leveldata.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace fluxdiv::grid {
namespace {

/// Deterministic global field used to verify exchange correctness.
Real fieldValue(int i, int j, int k, int c) {
  return i + 1000.0 * j + 1000000.0 * k + 0.25 * c;
}

/// Fill valid regions with the global field.
void fillValid(LevelData& ld) {
  for (std::size_t b = 0; b < ld.size(); ++b) {
    FArrayBox& fab = ld[b];
    for (int c = 0; c < ld.nComp(); ++c) {
      forEachCell(ld.validBox(b), [&](int i, int j, int k) {
        fab(i, j, k, c) = fieldValue(i, j, k, c);
      });
    }
  }
}

int wrap(int v, int n) { return ((v % n) + n) % n; }

TEST(LevelData, AllocatesGhostedFabs) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(32)), 16);
  LevelData ld(dbl, 5, 2);
  EXPECT_EQ(ld.size(), 8u);
  EXPECT_EQ(ld[0].box(), Box::cube(16).grow(2));
  EXPECT_EQ(ld[0].nComp(), 5);
}

TEST(LevelData, ExchangeFillsAllGhostsWithPeriodicImages) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(32)), 16);
  LevelData ld(dbl, 2, 2);
  fillValid(ld);
  ld.exchange();
  const int n = 32;
  for (std::size_t b = 0; b < ld.size(); ++b) {
    const FArrayBox& fab = ld[b];
    for (int c = 0; c < 2; ++c) {
      forEachCell(fab.box(), [&](int i, int j, int k) {
        const Real expect =
            fieldValue(wrap(i, n), wrap(j, n), wrap(k, n), c);
        ASSERT_EQ(fab(i, j, k, c), expect)
            << "box " << b << " cell (" << i << ',' << j << ',' << k
            << ") comp " << c;
      });
    }
  }
}

TEST(LevelData, ExchangeHandlesSingleBoxSelfWrap) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(8)), 8);
  LevelData ld(dbl, 1, 2);
  fillValid(ld);
  ld.exchange();
  const FArrayBox& fab = ld[0];
  EXPECT_EQ(fab(-1, 0, 0, 0), fieldValue(7, 0, 0, 0));
  EXPECT_EQ(fab(8, 3, 2, 0), fieldValue(0, 3, 2, 0));
  EXPECT_EQ(fab(-2, -2, -2, 0), fieldValue(6, 6, 6, 0)); // corner ghost
}

TEST(LevelData, CellAccounting) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(32)), 16);
  LevelData ld(dbl, 1, 2);
  EXPECT_EQ(ld.totalCellsValid(), 32 * 32 * 32);
  EXPECT_EQ(ld.totalCellsAllocated(), 8 * 20 * 20 * 20);
  // Fig. 1 ratio for N=16, g=2, D=3: (1 + 4/16)^3 = 1.953125
  const double ratio = double(ld.totalCellsAllocated()) /
                       double(ld.totalCellsValid());
  EXPECT_NEAR(ratio, 1.953125, 1e-12);
}

TEST(LevelData, ExchangeBytesMatchesCopierPlan) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(32)), 16);
  LevelData ld(dbl, 5, 2);
  // Ghost cells per box: allocated - valid.
  const std::int64_t ghostCells = 8 * (20 * 20 * 20 - 16 * 16 * 16);
  EXPECT_EQ(ld.exchangeBytes(),
            static_cast<std::size_t>(ghostCells) * 5 * sizeof(Real));
}

TEST(LevelData, MaxAbsDiffValidAcrossLayouts) {
  ProblemDomain dom(Box::cube(16));
  LevelData a(DisjointBoxLayout(dom, 16), 1, 2);
  LevelData b(DisjointBoxLayout(dom, 8), 1, 2);
  fillValid(a);
  fillValid(b);
  EXPECT_EQ(LevelData::maxAbsDiffValid(a, b), 0.0);
  b[0](IntVect(0, 0, 0), 0) += 2.5;
  EXPECT_EQ(LevelData::maxAbsDiffValid(a, b), 2.5);
  // A NaN in a later box than the larger difference still makes it NaN.
  b[b.size() - 1](b.validBox(b.size() - 1).hi(), 0) =
      std::numeric_limits<Real>::quiet_NaN();
  EXPECT_TRUE(std::isnan(LevelData::maxAbsDiffValid(a, b)));
}

TEST(LevelData, ExchangeOnAnisotropicBoxes) {
  ProblemDomain dom(Box(IntVect::zero(), IntVect(15, 7, 7)));
  DisjointBoxLayout dbl(dom, IntVect(8, 4, 8));
  LevelData ld(dbl, 1, 2);
  fillValid(ld);
  ld.exchange();
  const FArrayBox& fab = ld[0];
  forEachCell(fab.box(), [&](int i, int j, int k) {
    const Real expect = fieldValue(((i % 16) + 16) % 16,
                                   ((j % 8) + 8) % 8,
                                   ((k % 8) + 8) % 8, 0);
    ASSERT_EQ(fab(i, j, k, 0), expect);
  });
}

TEST(LevelData, CopierRejectsOversizedGhost) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(32)), 16);
  EXPECT_THROW(LevelData(dbl, 1, 17), std::invalid_argument);
}

TEST(LevelData, CopierOpsInAnyOrderMatchExchange) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(32)), 16);
  LevelData ref(dbl, 3, 2);
  LevelData byOps(dbl, 3, 2);
  fillValid(ref);
  fillValid(byOps);
  ref.exchange();
  // Run the plan's ops one by one in reverse order, as independent tasks
  // would: distinct ops write disjoint ghost regions, so any order must
  // deliver the exact exchange() result.
  const auto& ops = byOps.copier().ops();
  ASSERT_FALSE(ops.empty());
  for (std::size_t i = ops.size(); i-- > 0;) {
    const CopyOp& op = ops[i];
    byOps[op.destBox].copyShifted(byOps[op.srcBox], op.destRegion,
                                  op.srcShift, 0, 0, byOps.nComp());
  }
  for (std::size_t b = 0; b < ref.size(); ++b) {
    EXPECT_EQ(FArrayBox::maxAbsDiff(ref[b], byOps[b], ref[b].box()), 0.0)
        << "box " << b;
  }
}

TEST(LevelData, ExchangeWithoutGhostsHasNoOps) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(32)), 16);
  LevelData ld(dbl, 2, 0);
  EXPECT_TRUE(ld.copier().ops().empty());
  EXPECT_EQ(ld.exchangeBytes(), 0u);
  EXPECT_NO_THROW(ld.exchange());
}

TEST(LevelData, ExchangePlanHasNoEmptyOpsAndBytesAgree) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(32)), 16);
  LevelData ld(dbl, 5, 2);
  const auto& ops = ld.copier().ops();
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CopyOp& op = ops[i];
    EXPECT_FALSE(op.destRegion.empty()) << "op " << i;
    bytes += static_cast<std::size_t>(op.destRegion.numPts()) * 5 *
             sizeof(Real);
  }
  EXPECT_EQ(bytes, ld.exchangeBytes());
}

TEST(LevelData, DensePitchExchangeMatchesPadded) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(32)), 16);
  LevelData padded(dbl, 2, 2, Pitch::Padded);
  LevelData dense(dbl, 2, 2, Pitch::Dense);
  fillValid(padded);
  fillValid(dense);
  padded.exchange();
  dense.exchange();
  for (std::size_t b = 0; b < padded.size(); ++b) {
    EXPECT_EQ(
        FArrayBox::maxAbsDiff(padded[b], dense[b], padded[b].box()), 0.0)
        << "box " << b;
  }
}

TEST(LevelData, DeferredInitIsUsableAfterExplicitFill) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(32)), 16);
  // Deferred skips the allocation-time zero-fill (so the first writer
  // places the pages); writing every cell before any read
  // is the caller's contract, which fillValid + exchange satisfies for
  // the cells compared here.
  LevelData ld(dbl, 1, 2, Pitch::Padded, Init::Deferred);
  LevelData ref(dbl, 1, 2);
  fillValid(ld);
  fillValid(ref);
  ld.exchange();
  ref.exchange();
  for (std::size_t b = 0; b < ld.size(); ++b) {
    EXPECT_EQ(FArrayBox::maxAbsDiff(ld[b], ref[b], ref[b].box()), 0.0);
  }
}

TEST(LevelData, ZeroInitIsTheDefault) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(16)), 16);
  LevelData ld(dbl, 2, 1);
  const FArrayBox& fab = ld[0];
  for (int c = 0; c < 2; ++c) {
    forEachCell(fab.box(), [&](int i, int j, int k) {
      ASSERT_EQ(fab(i, j, k, c), 0.0);
    });
  }
}

} // namespace
} // namespace fluxdiv::grid
