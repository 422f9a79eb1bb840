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
  for (const CopyOp& op : copier_.ops()) {
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

} // namespace

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
