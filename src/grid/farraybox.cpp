#include "grid/farraybox.hpp"

#include <algorithm>
#include <cmath>

namespace fluxdiv::grid {

void FArrayBox::define(const Box& box, int ncomp, Pitch pitch, Init init) {
  assert(!box.empty());
  assert(ncomp > 0);
  box_ = box;
  ncomp_ = ncomp;
  sy_ = pitch == Pitch::Padded ? paddedPitch(box.size(0)) : box.size(0);
  sz_ = sy_ * box.size(1);
  sc_ = sz_ * box.size(2);
  // resize() through the default-init allocator does not touch the new
  // elements, so Init::Deferred allocations leave page placement to the
  // first writer (NUMA first-touch); Init::Zero fills here, preserving
  // the seed's zero-initialized semantics.
  data_.clear();
  data_.resize(static_cast<std::size_t>(sc_) * ncomp);
  if (init == Init::Zero) {
    std::fill(data_.begin(), data_.end(), 0.0);
  }
  assert(reinterpret_cast<std::uintptr_t>(data_.data()) % kFabAlignment ==
         0);
}

void FArrayBox::setVal(Real value) {
  std::fill(data_.begin(), data_.end(), value);
}

void FArrayBox::setVal(Real value, const Box& region, int c) {
  const Box r = region & box_;
  Real* p = dataPtr(c);
  forEachCell(r, [&](int i, int j, int k) { p[offset(i, j, k)] = value; });
}

void FArrayBox::copy(const FArrayBox& src, const Box& region, int srcComp,
                     int destComp, int ncomp) {
  copyShifted(src, region, IntVect::zero(), srcComp, destComp, ncomp);
}

void FArrayBox::copyShifted(const FArrayBox& src, const Box& region,
                            const IntVect& srcShift, int srcComp,
                            int destComp, int ncomp) {
  const Box r = region & box_;
  assert(src.box_.contains(r.shift(srcShift)));
  assert(srcComp + ncomp <= src.ncomp_ && destComp + ncomp <= ncomp_);
  if (r.empty()) {
    return;
  }
  const int nx = r.size(0);
  for (int c = 0; c < ncomp; ++c) {
    Real* d = dataPtr(destComp + c);
    const Real* s = src.dataPtr(srcComp + c);
    for (int k = r.lo(2); k <= r.hi(2); ++k) {
      for (int j = r.lo(1); j <= r.hi(1); ++j) {
        Real* drow = d + offset(r.lo(0), j, k);
        const Real* srow =
            s + src.offset(r.lo(0) + srcShift[0], j + srcShift[1],
                           k + srcShift[2]);
        copyRow(srow, nx, drow);
      }
    }
  }
}

void FArrayBox::plus(const FArrayBox& src, Real scale, const Box& region) {
  const Box r = region & box_ & src.box_;
  assert(src.ncomp_ == ncomp_);
  if (r.empty()) {
    return;
  }
  const int nx = r.size(0);
  for (int c = 0; c < ncomp_; ++c) {
    Real* d = dataPtr(c);
    const Real* s = src.dataPtr(c);
    forEachRow(r, [&](int j, int k) {
      plusRow(s + src.offset(r.lo(0), j, k), scale, nx,
              d + offset(r.lo(0), j, k));
    });
  }
}

void FArrayBox::mult(Real scale, const Box& region) {
  const Box r = region & box_;
  if (r.empty()) {
    return;
  }
  const int nx = r.size(0);
  for (int c = 0; c < ncomp_; ++c) {
    Real* d = dataPtr(c);
    forEachRow(r, [&](int j, int k) {
      multRow(scale, nx, d + offset(r.lo(0), j, k));
    });
  }
}

Real FArrayBox::sum(const Box& region, int c) const {
  const Box r = region & box_;
  const Real* p = dataPtr(c);
  Real total = 0.0;
  forEachCell(r, [&](int i, int j, int k) { total += p[offset(i, j, k)]; });
  return total;
}

Real FArrayBox::maxAbsDiff(const FArrayBox& a, const FArrayBox& b,
                           const Box& region) {
  assert(a.ncomp_ == b.ncomp_);
  const Box r = region & a.box_ & b.box_;
  Real worst = 0.0;
  for (int c = 0; c < a.ncomp_; ++c) {
    const Real* pa = a.dataPtr(c);
    const Real* pb = b.dataPtr(c);
    for (int k = r.lo(2); k <= r.hi(2); ++k) {
      for (int j = r.lo(1); j <= r.hi(1); ++j) {
        for (int i = r.lo(0); i <= r.hi(0); ++i) {
          const Real d =
              std::abs(pa[a.offset(i, j, k)] - pb[b.offset(i, j, k)]);
          if (std::isnan(d)) {
            return d; // std::max(worst, NaN) would keep worst
          }
          worst = std::max(worst, d);
        }
      }
    }
  }
  return worst;
}

} // namespace fluxdiv::grid
