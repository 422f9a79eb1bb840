#include "kernels/init.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

#include "kernels/exemplar.hpp"

namespace fluxdiv::kernels {

using grid::Box;
using grid::FArrayBox;
using grid::LevelData;
using grid::Real;

namespace {

// exemplarValue is a sum of two products of per-axis factors, so a fill
// evaluates each factor once per coordinate (four 1-D tables) and each
// cell costs one fused multiply-add pair. Both exemplarValue and the
// tables go through the helpers below; the multiply-adds are explicit
// std::fma calls (and init.cpp is compiled with -ffp-contract=off), so the
// compiler cannot fuse one path and not the other: every filled value is
// bit-identical to exemplarValue at its cell.

/// Angle of coordinate `i` along axis `d`: 2 pi (i - lo) / n.
Real angle(int i, int d, const Box& domain) {
  constexpr Real kTwoPi = 6.283185307179586476925286766559;
  return kTwoPi * (i - domain.lo(d)) / domain.size(d);
}

Real sinX(Real x, int c) { return 0.10 * std::sin(std::fma(0.5, c, x)); }
Real cosX(Real x, int c) { return std::cos(std::fma(0.2, c, x)); }
Real cosY(Real y, int c) { return std::cos(std::fma(-0.3, c, y)); }
Real sinZ(Real z, int c) { return 0.05 * std::sin(std::fma(0.7, c, z)); }

Real combine(Real sx, Real cx, Real cy, Real sz) {
  return std::fma(sz, cx, std::fma(sx, cy, 1.0));
}

/// Index of `v`'s periodic image in [lo, lo + n).
int wrap(int v, int lo, int n) { return lo + (((v - lo) % n) + n) % n; }

/// The four factor tables of component `c` over the cells of `region`,
/// indexed from `lo` = region.lo(). A coordinate outside `domain` takes
/// its periodic image's factor.
struct AxisTables {
  grid::IntVect lo;
  std::vector<Real> sx, cx, cy, sz;

  AxisTables(const Box& region, const Box& domain, int c)
      : lo(region.lo()) {
    const auto at = [&](int i, int d) {
      return angle(wrap(i, domain.lo(d), domain.size(d)), d, domain);
    };
    for (int i = region.lo(0); i <= region.hi(0); ++i) {
      sx.push_back(sinX(at(i, 0), c));
      cx.push_back(cosX(at(i, 0), c));
    }
    for (int j = region.lo(1); j <= region.hi(1); ++j) {
      cy.push_back(cosY(at(j, 1), c));
    }
    for (int k = region.lo(2); k <= region.hi(2); ++k) {
      sz.push_back(sinZ(at(k, 2), c));
    }
  }
};

/// Fill `fill` (inside both fab.box() and the tables' region) of
/// component `c` from the tables.
void fillFromTables(FArrayBox& fab, const Box& fill, const AxisTables& t,
                    int c) {
  Real* p = fab.dataPtr(c);
  const int nx = fill.size(0);
  const Real* sx = t.sx.data() + (fill.lo(0) - t.lo[0]);
  const Real* cx = t.cx.data() + (fill.lo(0) - t.lo[0]);
  for (int k = fill.lo(2); k <= fill.hi(2); ++k) {
    const Real sz = t.sz[static_cast<std::size_t>(k - t.lo[2])];
    for (int j = fill.lo(1); j <= fill.hi(1); ++j) {
      const Real cy = t.cy[static_cast<std::size_t>(j - t.lo[1])];
      Real* row = p + fab.offset(fill.lo(0), j, k);
      for (int i = 0; i < nx; ++i) {
        row[i] = combine(sx[i], cx[i], cy, sz);
      }
    }
  }
}

} // namespace

Real exemplarValue(int i, int j, int k, int c, const Box& domain) {
  // Strictly positive, smooth, periodic, and distinct per component. The
  // magnitudes keep velocities O(0.1) so the advection example is stable.
  // 1 + 0.10 sin(x + 0.5c) cos(y - 0.3c) + 0.05 sin(z + 0.7c) cos(x + 0.2c).
  const Real x = angle(i, 0, domain);
  return combine(sinX(x, c), cosX(x, c), cosY(angle(j, 1, domain), c),
                 sinZ(angle(k, 2, domain), c));
}

void initializeExemplar(LevelData& phi) {
  // The ghost cells exchange() fills are those whose periodic image lies
  // in the domain: the domain grown by the ghost width along each periodic
  // axis. Each takes its image's value, as exchange() would copy it, so no
  // exchange pass is needed.
  const grid::ProblemDomain& pd = phi.layout().domain();
  const Box domain = pd.box();
  Box reach = domain;
  for (int d = 0; d < grid::SpaceDim; ++d) {
    if (pd.isPeriodic(d)) {
      reach = reach.grow(d, phi.nGhost());
    }
  }
  for (int c = 0; c < phi.nComp(); ++c) {
    const AxisTables tables(reach, domain, c);
    for (std::size_t b = 0; b < phi.size(); ++b) {
      fillFromTables(phi[b], phi[b].box() & reach, tables, c);
    }
  }
}

void initializeExemplar(FArrayBox& fab, const Box& domain) {
  // Ghost cells take the periodic image's value, exactly what a LevelData
  // exchange would deliver.
  for (int c = 0; c < fab.nComp(); ++c) {
    fillFromTables(fab, fab.box(), AxisTables(fab.box(), domain, c), c);
  }
}

} // namespace fluxdiv::kernels
