#include "grid/leveldata.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fluxdiv::grid {

LevelData::LevelData(const DisjointBoxLayout& layout, int ncomp, int nghost,
                     Pitch pitch, Init init)
    : layout_(layout), ncomp_(ncomp), nghost_(nghost),
      copier_(layout, nghost) {
  fabs_.reserve(layout.size());
  for (std::size_t i = 0; i < layout.size(); ++i) {
    fabs_.emplace_back(layout.box(i).grow(nghost), ncomp, pitch, init);
  }
}

void LevelData::exchange() {
  const auto& ops = copier_.ops();
  if (ops.empty()) {
    return; // nghost == 0: no halos to fill, skip the parallel region
  }
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CopyOp& op = ops[i];
    fabs_[op.destBox].copyShifted(fabs_[op.srcBox], op.destRegion,
                                  op.srcShift, 0, 0, ncomp_);
  }
}

std::int64_t LevelData::totalCellsAllocated() const {
  std::int64_t total = 0;
  for (const auto& fab : fabs_) {
    total += fab.box().numPts();
  }
  return total;
}

std::int64_t LevelData::totalCellsValid() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < fabs_.size(); ++i) {
    total += validBox(i).numPts();
  }
  return total;
}

namespace {

/// Range of source-layout box coordinates overlapping `region`.
void overlapRange(const DisjointBoxLayout& src, const Box& region,
                  IntVect& lo, IntVect& hi) {
  const Box dom = src.domain().box();
  for (int d = 0; d < SpaceDim; ++d) {
    lo[d] = (region.lo(d) - dom.lo(d)) / src.boxSize()[d];
    hi[d] = (region.hi(d) - dom.lo(d)) / src.boxSize()[d];
  }
}

/// One valid-region copy in a copyTo plan.
struct CopyToOp {
  std::size_t destBox = 0;
  std::size_t srcBox = 0;
  Box region;
};

} // namespace

void LevelData::copyTo(LevelData& dest) const {
  if (dest.ncomp_ != ncomp_) {
    throw std::invalid_argument("copyTo: component count mismatch");
  }
  if (dest.layout_.domain().box() != layout_.domain().box()) {
    throw std::invalid_argument("copyTo: domain mismatch");
  }
  // Build the plan serially, skipping empty intersections up front, so the
  // parallel loop below only dispatches real copies and load-balances over
  // them rather than over destination boxes of uneven overlap.
  std::vector<CopyToOp> plan;
  for (std::size_t di = 0; di < dest.size(); ++di) {
    const Box dbox = dest.validBox(di);
    IntVect lo, hi;
    overlapRange(layout_, dbox, lo, hi);
    for (int bz = lo[2]; bz <= hi[2]; ++bz) {
      for (int by = lo[1]; by <= hi[1]; ++by) {
        for (int bx = lo[0]; bx <= hi[0]; ++bx) {
          IntVect unusedShift;
          const std::int64_t si =
              layout_.wrappedIndex(IntVect(bx, by, bz), unusedShift);
          const Box region =
              dbox & layout_.box(static_cast<std::size_t>(si));
          if (region.empty()) {
            continue;
          }
          plan.push_back({di, static_cast<std::size_t>(si), region});
        }
      }
    }
  }
  if (plan.empty()) {
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const CopyToOp& op = plan[i];
    dest.fabs_[op.destBox].copy(fabs_[op.srcBox], op.region, 0, 0, ncomp_);
  }
}

Real LevelData::maxAbsDiffValid(const LevelData& a, const LevelData& b) {
  if (a.layout_.domain().box() != b.layout_.domain().box() ||
      a.ncomp_ != b.ncomp_) {
    throw std::invalid_argument("maxAbsDiffValid: incompatible levels");
  }
  Real worst = 0.0;
  for (std::size_t ai = 0; ai < a.size(); ++ai) {
    const Box abox = a.validBox(ai);
    IntVect lo, hi;
    overlapRange(b.layout_, abox, lo, hi);
    for (int bz = lo[2]; bz <= hi[2]; ++bz) {
      for (int by = lo[1]; by <= hi[1]; ++by) {
        for (int bx = lo[0]; bx <= hi[0]; ++bx) {
          IntVect unusedShift;
          const std::int64_t bi =
              b.layout_.wrappedIndex(IntVect(bx, by, bz), unusedShift);
          const Box region =
              abox & b.validBox(static_cast<std::size_t>(bi));
          const Real d = FArrayBox::maxAbsDiff(
              a[ai], b[static_cast<std::size_t>(bi)], region);
          if (std::isnan(d)) {
            return d;
          }
          worst = std::max(worst, d);
        }
      }
    }
  }
  return worst;
}

} // namespace fluxdiv::grid
