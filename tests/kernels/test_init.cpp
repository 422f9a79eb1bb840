#include "kernels/init.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>

#include "kernels/exemplar.hpp"

namespace fluxdiv::kernels {
namespace {

using grid::Box;
using grid::DisjointBoxLayout;
using grid::FArrayBox;
using grid::IntVect;
using grid::LevelData;
using grid::ProblemDomain;
using grid::Real;

TEST(ExemplarValue, StrictlyPositiveAndBounded) {
  const Box dom = Box::cube(16);
  for (int c = 0; c < kNumComp; ++c) {
    forEachCell(dom, [&](int i, int j, int k) {
      const Real v = exemplarValue(i, j, k, c, dom);
      ASSERT_GT(v, 0.5);
      ASSERT_LT(v, 1.5);
    });
  }
}

TEST(ExemplarValue, ComponentsDiffer) {
  const Box dom = Box::cube(8);
  EXPECT_NE(exemplarValue(1, 2, 3, 0, dom), exemplarValue(1, 2, 3, 1, dom));
}

TEST(InitializeExemplar, GhostsHoldPeriodicImagesAfterExchange) {
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(16)), 8);
  LevelData phi(dbl, kNumComp, kNumGhost);
  initializeExemplar(phi);
  const Box dom = dbl.domain().box();
  // Low-side ghost of box 0 equals the domain's far side value.
  EXPECT_DOUBLE_EQ(phi[0](-1, 0, 0, 0), exemplarValue(15, 0, 0, 0, dom));
  EXPECT_DOUBLE_EQ(phi[0](-2, -1, -2, 3),
                   exemplarValue(14, 15, 14, 3, dom));
}

TEST(InitializeExemplar, IndependentOfDecomposition) {
  // The same global field regardless of box size — the invariant behind
  // all equal-work cross-box-size comparisons.
  ProblemDomain dom(Box::cube(16));
  LevelData a(DisjointBoxLayout(dom, 16), kNumComp, kNumGhost);
  LevelData b(DisjointBoxLayout(dom, 4), kNumComp, kNumGhost);
  initializeExemplar(a);
  initializeExemplar(b);
  EXPECT_EQ(LevelData::maxAbsDiffValid(a, b), 0.0);
}

TEST(InitializeExemplar, StandaloneFabMatchesLevelFill) {
  const Box dom = Box::cube(8);
  DisjointBoxLayout dbl(ProblemDomain(dom), 8);
  LevelData level(dbl, kNumComp, kNumGhost);
  initializeExemplar(level);

  FArrayBox fab(Box::cube(8).grow(kNumGhost), kNumComp);
  initializeExemplar(fab, dom);
  EXPECT_EQ(FArrayBox::maxAbsDiff(level[0], fab, fab.box()), 0.0);
}

TEST(InitializeExemplar, TablesMatchExemplarValueBitwise) {
  // Both fills evaluate exemplarValue through per-axis factor tables; each
  // value must be exemplarValue's to the bit, not only to rounding. A
  // level's ghost cell holds its periodic image's value, as exchange()
  // would copy it, except beyond a non-periodic face (walls on x), where
  // it keeps its zero for the boundary conditions.
  const Box dom(IntVect::zero(), IntVect{23, 15, 39});
  const auto sameBits = [](Real a, Real b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const auto wrap = [](int v, int lo, int n) {
    return lo + (((v - lo) % n) + n) % n;
  };
  const auto image = [&](int i, int j, int k, int c) {
    return exemplarValue(wrap(i, 0, dom.size(0)), wrap(j, 0, dom.size(1)),
                         wrap(k, 0, dom.size(2)), c, dom);
  };
  for (const bool wallX : {false, true}) {
    const ProblemDomain pdom(dom, std::array<bool, 3>{!wallX, true, true});
    for (const IntVect& boxSize : {IntVect::unit(8), dom.size()}) {
      const DisjointBoxLayout dbl{pdom, boxSize};
      LevelData level(dbl, kNumComp, kNumGhost);
      initializeExemplar(level);
      for (std::size_t b = 0; b < level.size(); ++b) {
        FArrayBox fab(level.validBox(b).grow(kNumGhost), kNumComp);
        initializeExemplar(fab, dom);
        for (int c = 0; c < kNumComp; ++c) {
          forEachCell(level[b].box(), [&](int i, int j, int k) {
            const bool beyondWall = wallX && (i < dom.lo(0) || i > dom.hi(0));
            ASSERT_TRUE(sameBits(level[b](i, j, k, c),
                                 beyondWall ? 0.0 : image(i, j, k, c)))
                << "level box " << b << " cell " << i << "," << j << ","
                << k << " comp " << c << (wallX ? " walls" : "");
          });
          forEachCell(fab.box(), [&](int i, int j, int k) {
            ASSERT_TRUE(sameBits(fab(i, j, k, c), image(i, j, k, c)))
                << "fab of box " << b << " cell " << i << "," << j << ","
                << k << " comp " << c;
          });
        }
      }
    }
  }
}

} // namespace
} // namespace fluxdiv::kernels
