// Randomized property tests for the shared region algebra
// (analysis/region_ops) and commcheck's C1 exactness proof, both checked
// against brute-force per-cell oracles. The region-ops properties pin the
// primitives the region checkers (graphcheck, commcheck) share; the
// exactness property pins the whole C1 pipeline: over random layouts
// (box counts, sizes, ghost depths, per-axis periodicity) the checker's
// verdict must equal the per-cell count "every exchange-owned ghost cell
// covered exactly once".

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/commcheck.hpp"
#include "analysis/region_ops.hpp"
#include "grid/box.hpp"
#include "grid/copier.hpp"
#include "grid/layout.hpp"

namespace fluxdiv::analysis {
namespace {

using grid::Box;
using grid::Copier;
using grid::DisjointBoxLayout;
using grid::IntVect;
using grid::ProblemDomain;

/// Deterministic xorshift PRNG so failures replay from the test name.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 2654435761u + 1) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  /// Uniform in [lo, hi] inclusive.
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                              hi - lo + 1));
  }
  bool coin() { return (next() & 1) != 0; }
};

Box randomBox(Rng& rng, int span) {
  const IntVect lo{rng.range(-span, span), rng.range(-span, span),
                   rng.range(-span, span)};
  const IntVect ext{rng.range(0, 4), rng.range(0, 4), rng.range(0, 4)};
  return Box(lo, lo + ext);
}

std::int64_t flatten(const IntVect& p, int span) {
  const std::int64_t w = 4 * span;
  return (p[0] + 2 * span) + w * ((p[1] + 2 * span) + w * (p[2] + 2 * span));
}

// ---------------------------------------------------------------------------
// Region-ops properties vs per-cell oracles.
// ---------------------------------------------------------------------------

TEST(RegionOpsProps, SubtractAllMatchesPerCellDifference) {
  constexpr int kSpan = 6;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const Box target = randomBox(rng, kSpan);
    std::vector<Box> cuts;
    const int nCuts = rng.range(0, 4);
    for (int i = 0; i < nCuts; ++i) {
      cuts.push_back(randomBox(rng, kSpan));
    }
    const std::vector<Box> pieces = subtractAll(target, cuts);
    // Pieces must be disjoint, inside the target, outside every cut, and
    // jointly cover every surviving cell.
    std::map<std::int64_t, int> covered;
    for (const Box& p : pieces) {
      EXPECT_TRUE(target.contains(p)) << "seed " << seed;
      grid::forEachCell(p, [&](int i, int j, int k) {
        covered[flatten({i, j, k}, kSpan)]++;
      });
    }
    std::int64_t expectCells = 0;
    grid::forEachCell(target, [&](int i, int j, int k) {
      const IntVect c{i, j, k};
      bool cut = false;
      for (const Box& b : cuts) {
        cut = cut || b.contains(c);
      }
      if (!cut) {
        ++expectCells;
        EXPECT_EQ(covered[flatten(c, kSpan)], 1)
            << "seed " << seed << " cell " << c;
      } else {
        EXPECT_EQ(covered.count(flatten(c, kSpan)), 0u)
            << "seed " << seed << " cell " << c;
      }
    });
    std::int64_t gotCells = 0;
    for (const Box& p : pieces) {
      gotCells += p.numPts();
    }
    EXPECT_EQ(gotCells, expectCells) << "seed " << seed;
  }
}

TEST(RegionOpsProps, CoverSetAgreesWithPerCellCoverage) {
  constexpr int kSpan = 6;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const Box target = randomBox(rng, kSpan);
    CoverSet cover;
    const int n = rng.range(0, 5);
    std::vector<Box> boxes;
    for (int i = 0; i < n; ++i) {
      boxes.push_back(randomBox(rng, kSpan));
      cover.add(boxes.back());
    }
    bool allCovered = true;
    grid::forEachCell(target, [&](int i, int j, int k) {
      const IntVect c{i, j, k};
      bool hit = false;
      for (const Box& b : boxes) {
        hit = hit || b.contains(c);
      }
      allCovered = allCovered && hit;
    });
    EXPECT_EQ(cover.covers(target), allCovered) << "seed " << seed;
    const Box missing = cover.firstMissing(target);
    EXPECT_EQ(missing.empty(), allCovered) << "seed " << seed;
    if (!missing.empty()) {
      // The witness is real: inside the target, outside every box.
      EXPECT_TRUE(target.contains(missing)) << "seed " << seed;
      grid::forEachCell(missing, [&](int i, int j, int k) {
        for (const Box& b : boxes) {
          EXPECT_FALSE(b.contains(IntVect{i, j, k})) << "seed " << seed;
        }
      });
    }
  }
}

TEST(RegionOpsProps, FirstPairOverlapAgreesWithPairwiseScan) {
  constexpr int kSpan = 6;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    std::vector<Box> boxes;
    const int n = rng.range(0, 6);
    for (int i = 0; i < n; ++i) {
      boxes.push_back(randomBox(rng, kSpan));
    }
    bool anyOverlap = false;
    for (std::size_t i = 0; i < boxes.size() && !anyOverlap; ++i) {
      for (std::size_t j = i + 1; j < boxes.size() && !anyOverlap; ++j) {
        anyOverlap = !boxes[i].empty() && !boxes[j].empty() &&
                     boxes[i].intersects(boxes[j]);
      }
    }
    const std::optional<PairOverlap> hit = firstPairOverlap(boxes);
    EXPECT_EQ(hit.has_value(), anyOverlap) << "seed " << seed;
    if (hit) {
      ASSERT_LT(hit->first, boxes.size());
      ASSERT_LT(hit->second, boxes.size());
      EXPECT_EQ(hit->region, boxes[hit->first] & boxes[hit->second])
          << "seed " << seed;
      EXPECT_FALSE(hit->region.empty()) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// C1 exactness vs a brute-force per-cell oracle over random layouts.
// ---------------------------------------------------------------------------

struct RandomLevel {
  DisjointBoxLayout dbl;
  int nghost = 1;
};

RandomLevel randomLevel(Rng& rng) {
  const IntVect counts{rng.range(1, 3), rng.range(1, 3), rng.range(1, 3)};
  const IntVect sizes{rng.range(4, 8), rng.range(4, 8), rng.range(4, 8)};
  const std::array<bool, 3> periodic{rng.coin(), rng.coin(), rng.coin()};
  const Box domBox(IntVect::zero(),
                   IntVect{counts[0] * sizes[0] - 1,
                           counts[1] * sizes[1] - 1,
                           counts[2] * sizes[2] - 1});
  RandomLevel lvl{
      DisjointBoxLayout(ProblemDomain(domBox, periodic), sizes), 1};
  const int minSide = std::min(sizes[0], std::min(sizes[1], sizes[2]));
  lvl.nghost = rng.range(1, std::min(4, minSide));
  return lvl;
}

/// Per-cell oracle: counts, for every ghost cell of every box, how many
/// plan ops write it, and checks every op reads valid source interior.
/// Returns a description of the first violation, or empty when the plan
/// is exact.
std::string oracleCheck(const RandomLevel& lvl, const Copier& copier) {
  const ProblemDomain& dom = lvl.dbl.domain();
  for (std::size_t b = 0; b < lvl.dbl.size(); ++b) {
    const Box valid = lvl.dbl.box(b);
    const Box ghosted = valid.grow(lvl.nghost);
    std::string violation;
    grid::forEachCell(ghosted, [&](int i, int j, int k) {
      const IntVect c{i, j, k};
      if (valid.contains(c) || !violation.empty()) {
        return;
      }
      IntVect shift;
      const bool owned = dom.wrapShift(c, shift);
      int writers = 0;
      for (const grid::CopyOp& op : copier.ops()) {
        if (op.destBox == b && op.destRegion.contains(c)) {
          ++writers;
        }
      }
      const int expected = owned ? 1 : 0;
      if (writers != expected) {
        violation = "box " + std::to_string(b) + " ghost cell expected " +
                    std::to_string(expected) + " writer(s), got " +
                    std::to_string(writers);
      }
    });
    if (!violation.empty()) {
      return violation;
    }
  }
  for (const grid::CopyOp& op : copier.ops()) {
    const Box src = op.destRegion.shift(op.srcShift);
    if (!lvl.dbl.box(op.srcBox).contains(src)) {
      return "op reads outside source box " + std::to_string(op.srcBox);
    }
  }
  return {};
}

TEST(CommCheckProps, ExactnessAgreesWithPerCellOracle) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed + 1000);
    const RandomLevel lvl = randomLevel(rng);
    const Copier copier(lvl.dbl, lvl.nghost);
    const std::string oracle = oracleCheck(lvl, copier);
    EXPECT_EQ(oracle, std::string{}) << "seed " << seed;

    const CommPlanModel model = buildCommPlanModel(lvl.dbl, copier);
    const CommCheckReport rep = checkCommPlan(model);
    for (const CommDiagnostic& d : rep.diagnostics) {
      ADD_FAILURE() << "seed " << seed << " (" << model.name
                    << "): " << d.message();
    }
  }
}

TEST(CommCheckProps, MutatedPlansRejectedWhereOracleRejects) {
  // Close the loop the other way: a random single-op corruption that the
  // per-cell oracle would flag must also be flagged by the checker.
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed + 5000);
    const RandomLevel lvl = randomLevel(rng);
    const Copier copier(lvl.dbl, lvl.nghost);
    CommPlanModel model = buildCommPlanModel(lvl.dbl, copier);
    if (model.ops.empty()) {
      continue;
    }
    const std::size_t victim =
        static_cast<std::size_t>(rng.next() % model.ops.size());
    // Dropping any op leaves its dest sector uncovered: the oracle's
    // count goes to 0 there, and the checker must report a GhostGap.
    model.ops.erase(model.ops.begin() +
                    static_cast<std::ptrdiff_t>(victim));
    const CommCheckReport rep = checkCommPlan(model);
    bool sawGap = false;
    for (const CommDiagnostic& d : rep.diagnostics) {
      sawGap = sawGap || d.kind == CommDiagKind::GhostGap;
    }
    EXPECT_TRUE(sawGap) << "seed " << seed;
  }
}

} // namespace
} // namespace fluxdiv::analysis
