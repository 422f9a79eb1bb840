#pragma once
// Rectangular index-space domain (Chombo's Box). A Box is a closed interval
// [lo, hi] in each dimension; an empty box is represented by any hi < lo.
// Boxes describe cell-centered regions; faceBox() produces the face-centered
// region used by the flux temporaries (one extra index in one direction).

#include <cstdint>
#include <iosfwd>

#include "grid/intvect.hpp"

namespace fluxdiv::grid {

/// Closed rectangular region of the integer index space.
class Box {
public:
  /// Default: the canonical empty box.
  constexpr Box() : lo_(0, 0, 0), hi_(-1, -1, -1) {}
  /// Box spanning [lo, hi] inclusive in every dimension.
  constexpr Box(const IntVect& lo, const IntVect& hi) : lo_(lo), hi_(hi) {}

  /// Cube of side n with low corner at `origin`.
  static constexpr Box cube(int n, const IntVect& origin = IntVect::zero()) {
    return {origin, origin + IntVect::unit(n - 1)};
  }

  [[nodiscard]] constexpr const IntVect& lo() const { return lo_; }
  [[nodiscard]] constexpr const IntVect& hi() const { return hi_; }
  [[nodiscard]] constexpr int lo(int d) const { return lo_[d]; }
  [[nodiscard]] constexpr int hi(int d) const { return hi_[d]; }

  /// Number of indices covered in direction d (0 for an empty box).
  [[nodiscard]] constexpr int size(int d) const {
    const int n = hi_[d] - lo_[d] + 1;
    return n > 0 ? n : 0;
  }
  /// Extent vector (size in each direction).
  [[nodiscard]] constexpr IntVect size() const {
    return {size(0), size(1), size(2)};
  }
  /// Total number of points covered.
  [[nodiscard]] constexpr std::int64_t numPts() const {
    return empty() ? 0 : size().product();
  }
  [[nodiscard]] constexpr bool empty() const {
    return hi_[0] < lo_[0] || hi_[1] < lo_[1] || hi_[2] < lo_[2];
  }

  [[nodiscard]] constexpr bool contains(const IntVect& p) const {
    return lo_.allLE(p) && p.allLE(hi_);
  }
  [[nodiscard]] constexpr bool contains(const Box& b) const {
    return b.empty() || (contains(b.lo_) && contains(b.hi_));
  }
  [[nodiscard]] constexpr bool intersects(const Box& b) const {
    return !(*this & b).empty();
  }

  /// Intersection (may be empty).
  constexpr Box operator&(const Box& b) const {
    return {IntVect::max(lo_, b.lo_), IntVect::min(hi_, b.hi_)};
  }

  constexpr bool operator==(const Box& b) const {
    return lo_ == b.lo_ && hi_ == b.hi_;
  }
  constexpr bool operator!=(const Box& b) const { return !(*this == b); }

  /// Box grown by `n` on every side (ghost region construction).
  [[nodiscard]] constexpr Box grow(int n) const {
    return {lo_ - IntVect::unit(n), hi_ + IntVect::unit(n)};
  }
  /// Box grown by `n` on both sides of direction d only.
  [[nodiscard]] constexpr Box grow(int d, int n) const {
    return {lo_ - IntVect::basis(d) * n, hi_ + IntVect::basis(d) * n};
  }
  /// Box translated by `shift`.
  [[nodiscard]] constexpr Box shift(const IntVect& s) const {
    return {lo_ + s, hi_ + s};
  }

  /// Face-centered companion box in direction d: the faces bounding the
  /// cells of this box, i.e. one extra index on the high side of d. Face
  /// index f is the face between cells f-1 and f.
  [[nodiscard]] constexpr Box faceBox(int d) const {
    return {lo_, hi_ + IntVect::basis(d)};
  }

  /// The `d`-low / `d`-high boundary slab of thickness `n` *inside* the box.
  [[nodiscard]] constexpr Box lowSlab(int d, int n) const {
    IntVect h = hi_;
    h[d] = lo_[d] + n - 1;
    return {lo_, h};
  }
  [[nodiscard]] constexpr Box highSlab(int d, int n) const {
    IntVect l = lo_;
    l[d] = hi_[d] - n + 1;
    return {l, hi_};
  }

private:
  IntVect lo_;
  IntVect hi_;
};

std::ostream& operator<<(std::ostream& os, const Box& b);

/// Invoke f(i, j, k) for every point of the box in z-outer, x-inner
/// (unit-stride) order — the canonical Fortran-order traversal.
template <typename F> void forEachCell(const Box& b, F&& f) {
  for (int k = b.lo(2); k <= b.hi(2); ++k) {
    for (int j = b.lo(1); j <= b.hi(1); ++j) {
      for (int i = b.lo(0); i <= b.hi(0); ++i) {
        f(i, j, k);
      }
    }
  }
}

/// Invoke f(j, k) for every x-row of the box, z-outer: the row-wise form
/// of forEachCell for loops that hand a whole row to a row kernel.
template <typename F> void forEachRow(const Box& b, F&& f) {
  for (int k = b.lo(2); k <= b.hi(2); ++k) {
    for (int j = b.lo(1); j <= b.hi(1); ++j) {
      f(j, k);
    }
  }
}

} // namespace fluxdiv::grid
