#include "grid/farraybox.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace fluxdiv::grid {
namespace {

TEST(FArrayBox, LayoutIsColumnMajorComponentSlowest) {
  // The paper's data layout (Sec. III-C): [x, y, z, c], x unit-stride.
  // Dense pitch pins the packed strides of the seed layout exactly.
  const Box b(IntVect(0, 0, 0), IntVect(3, 4, 5));
  FArrayBox f(b, 2, Pitch::Dense);
  EXPECT_EQ(f.strideY(), 4);
  EXPECT_EQ(f.strideZ(), 4 * 5);
  EXPECT_EQ(f.strideC(), 4 * 5 * 6);
  EXPECT_EQ(f.size(), std::size_t(4 * 5 * 6 * 2));
  EXPECT_EQ(f.pitchSlack(), 0);

  f(IntVect(1, 0, 0), 0) = 7.0;
  EXPECT_EQ(f.dataPtr(0)[1], 7.0);
  f(IntVect(0, 1, 0), 0) = 8.0;
  EXPECT_EQ(f.dataPtr(0)[4], 8.0);
  f(IntVect(0, 0, 0), 1) = 9.0;
  EXPECT_EQ(f.dataPtr(1)[0], 9.0);
}

TEST(FArrayBox, PaddedPitchRoundsUpAndStaysConsistent) {
  const Box b(IntVect(0, 0, 0), IntVect(3, 4, 5));
  FArrayBox f(b, 2); // Pitch::Padded is the default
  EXPECT_EQ(f.pitch(), paddedPitch(4));
  EXPECT_EQ(f.pitch() % kSimdDoubles, 0);
  EXPECT_EQ(f.pitchSlack(), f.pitch() - 4);
  EXPECT_EQ(f.strideY(), f.pitch());
  EXPECT_EQ(f.strideZ(), f.pitch() * 5);
  EXPECT_EQ(f.strideC(), f.pitch() * 5 * 6);
  EXPECT_EQ(f.size(), static_cast<std::size_t>(f.strideC()) * 2);
  // Logical addressing is pitch-agnostic.
  f(IntVect(1, 2, 3), 1) = 7.0;
  EXPECT_EQ(f(IntVect(1, 2, 3), 1), 7.0);
  EXPECT_EQ(f.dataPtr(1)[f.offset(1, 2, 3)], 7.0);
}

TEST(FArrayBox, StorageIsAlignedWithAlignedRows) {
  // Both the allocation base and (under the default padded pitch) every
  // x-row base must sit on kFabAlignment — the pencil-kernel contract.
  FArrayBox f(Box::cube(5), 2);
  const auto base = reinterpret_cast<std::uintptr_t>(f.dataPtr(0));
  EXPECT_EQ(base % kFabAlignment, 0u);
  EXPECT_EQ(static_cast<std::size_t>(f.pitch()) * sizeof(Real) %
                kFabAlignment,
            0u);
  const auto row = reinterpret_cast<std::uintptr_t>(
      f.dataPtr(1) + f.offset(0, 3, 2));
  EXPECT_EQ(row % kFabAlignment, 0u);

  // Dense fabs keep the aligned base (rows may not be aligned).
  FArrayBox d(Box::cube(5), 2, Pitch::Dense);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.dataPtr(0)) % kFabAlignment,
            0u);
}

TEST(FArrayBox, IndexerMatchesOffsetForBothPitches) {
  const Box b(IntVect(-1, -2, -3), IntVect(3, 2, 1));
  for (Pitch pitch : {Pitch::Padded, Pitch::Dense}) {
    FArrayBox f(b, 1, pitch);
    const FabIndexer ix = f.indexer();
    forEachCell(b, [&](int i, int j, int k) {
      EXPECT_EQ(ix(i, j, k), f.offset(i, j, k));
    });
    EXPECT_EQ(ix.stride(0), 1);
    EXPECT_EQ(ix.stride(1), f.strideY());
    EXPECT_EQ(ix.stride(2), f.strideZ());
  }
}

TEST(FArrayBox, OffsetRespectsBoxOrigin) {
  const Box b(IntVect(-2, -2, -2), IntVect(2, 2, 2));
  FArrayBox f(b, 1, Pitch::Dense);
  EXPECT_EQ(f.offset(-2, -2, -2), 0);
  EXPECT_EQ(f.offset(-1, -2, -2), 1);
  EXPECT_EQ(f.offset(-2, -1, -2), 5);
  EXPECT_EQ(f.offset(2, 2, 2), 5 * 5 * 5 - 1);
}

TEST(FArrayBox, ZeroInitializedOnDefine) {
  FArrayBox f(Box::cube(4), 3);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f.dataPtr(0)[i], 0.0);
  }
}

TEST(FArrayBox, SetVal) {
  FArrayBox f(Box::cube(4), 2);
  f.setVal(3.5);
  EXPECT_EQ(f(IntVect(2, 2, 2), 1), 3.5);
  f.setVal(-1.0, Box::cube(2), 0);
  EXPECT_EQ(f(IntVect(0, 0, 0), 0), -1.0);
  EXPECT_EQ(f(IntVect(2, 0, 0), 0), 3.5);
  EXPECT_EQ(f(IntVect(0, 0, 0), 1), 3.5); // other component untouched
}

TEST(FArrayBox, CopyRegion) {
  FArrayBox src(Box::cube(4), 2);
  FArrayBox dst(Box::cube(4), 2);
  forEachCell(src.box(), [&](int i, int j, int k) {
    src(i, j, k, 0) = i + 10 * j + 100 * k;
    src(i, j, k, 1) = -src(i, j, k, 0);
  });
  dst.copy(src, Box::cube(2, IntVect(1, 1, 1)), 0, 0, 2);
  EXPECT_EQ(dst(1, 1, 1, 0), 111.0);
  EXPECT_EQ(dst(2, 2, 2, 1), -222.0);
  EXPECT_EQ(dst(0, 0, 0, 0), 0.0); // outside region untouched
}

TEST(FArrayBox, CopyShiftedImplementsPeriodicImage) {
  // Destination ghost row at i = -1 sourced from i = 3 (shift +4).
  FArrayBox src(Box::cube(4), 1);
  FArrayBox dst(src.box().grow(1), 1);
  forEachCell(src.box(), [&](int i, int j, int k) {
    src(i, j, k, 0) = i + 10 * j + 100 * k;
  });
  const Box ghostRow(IntVect(-1, 0, 0), IntVect(-1, 3, 3));
  dst.copyShifted(src, ghostRow, IntVect(4, 0, 0), 0, 0, 1);
  EXPECT_EQ(dst(-1, 2, 1, 0), src(3, 2, 1, 0));
}

TEST(FArrayBox, CopyComponentRemap) {
  FArrayBox src(Box::cube(2), 3);
  FArrayBox dst(Box::cube(2), 3);
  src.setVal(5.0);
  dst.copy(src, src.box(), /*srcComp=*/2, /*destComp=*/0, 1);
  EXPECT_EQ(dst(0, 0, 0, 0), 5.0);
  EXPECT_EQ(dst(0, 0, 0, 2), 0.0);
}

TEST(FArrayBox, PlusScales) {
  FArrayBox a(Box::cube(2), 1);
  FArrayBox b(Box::cube(2), 1);
  a.setVal(1.0);
  b.setVal(2.0);
  a.plus(b, -0.5, a.box());
  EXPECT_EQ(a(1, 1, 1, 0), 0.0);
}

TEST(FArrayBox, SumOverRegion) {
  FArrayBox f(Box::cube(4), 1);
  f.setVal(2.0);
  EXPECT_EQ(f.sum(Box::cube(2), 0), 16.0);
  EXPECT_EQ(f.sum(f.box(), 0), 128.0);
}

TEST(FArrayBox, MaxAbsDiff) {
  FArrayBox a(Box::cube(4), 2);
  FArrayBox b(Box::cube(4), 2);
  a.setVal(1.0);
  b.setVal(1.0);
  EXPECT_EQ(FArrayBox::maxAbsDiff(a, b, a.box()), 0.0);
  b(IntVect(3, 3, 3), 1) = 4.0;
  EXPECT_EQ(FArrayBox::maxAbsDiff(a, b, a.box()), 3.0);
  // Diff restricted to a region that excludes the perturbation.
  EXPECT_EQ(FArrayBox::maxAbsDiff(a, b, Box::cube(2)), 0.0);
}

TEST(FArrayBox, MaxAbsDiffPropagatesNaN) {
  // A NaN difference must not read as "equal" (std::max(worst, NaN)
  // keeps worst, which would make a NaN-vs-0 cell read 0).
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();
  FArrayBox a(Box::cube(4), 2);
  FArrayBox b(Box::cube(4), 2);
  a(IntVect(1, 2, 3), 1) = nan;
  EXPECT_TRUE(std::isnan(FArrayBox::maxAbsDiff(a, b, a.box())));
  EXPECT_TRUE(std::isnan(FArrayBox::maxAbsDiff(b, a, a.box())));
  // ... also after a larger finite difference was seen first.
  b(IntVect(0, 0, 0), 0) = 5.0;
  EXPECT_TRUE(std::isnan(FArrayBox::maxAbsDiff(a, b, a.box())));
  // inf - inf is NaN as well.
  a(IntVect(1, 2, 3), 1) = inf;
  b(IntVect(1, 2, 3), 1) = inf;
  EXPECT_TRUE(std::isnan(FArrayBox::maxAbsDiff(a, b, a.box())));
  // Outside the compared region the NaN does not count.
  a(IntVect(1, 2, 3), 1) = nan;
  EXPECT_EQ(FArrayBox::maxAbsDiff(a, b, Box::cube(1)), 5.0);
  // The sign of zero is invisible to it: -0.0 vs +0.0 differs by 0.
  FArrayBox z(Box::cube(2), 1);
  FArrayBox nz(Box::cube(2), 1);
  nz.setVal(-0.0);
  EXPECT_EQ(FArrayBox::maxAbsDiff(z, nz, z.box()), 0.0);
}

TEST(FArrayBox, RedefineReshapes) {
  FArrayBox f(Box::cube(4), 1);
  f.setVal(1.0);
  f.define(Box::cube(8), 2);
  EXPECT_EQ(f.nComp(), 2);
  EXPECT_EQ(f.box(), Box::cube(8));
  EXPECT_EQ(f(0, 0, 0, 0), 0.0); // fresh zero storage
}

} // namespace
} // namespace fluxdiv::grid
