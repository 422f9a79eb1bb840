#include "grid/bc.hpp"

#include <stdexcept>

namespace fluxdiv::grid {

namespace {

/// Lagrange weights of the cubic through nodes {0,1,2,3} evaluated at x.
std::array<Real, 4> cubicWeights(Real x) {
  std::array<Real, 4> w;
  for (int i = 0; i < 4; ++i) {
    Real num = 1.0;
    Real den = 1.0;
    for (int j = 0; j < 4; ++j) {
      if (j == i) {
        continue;
      }
      num *= (x - j);
      den *= (i - j);
    }
    w[static_cast<std::size_t>(i)] = num / den;
  }
  return w;
}

} // namespace

BoundaryFiller::BoundaryFiller(const DisjointBoxLayout& layout,
                               BoundarySpec spec)
    : layout_(layout), spec_(spec) {
  for (int d = 0; d < SpaceDim; ++d) {
    for (int side = 0; side < 2; ++side) {
      const BCType t =
          spec_.type[static_cast<std::size_t>(d)][static_cast<std::size_t>(
              side)];
      if (t != BCType::None && layout.domain().isPeriodic(d)) {
        throw std::invalid_argument(
            "BoundaryFiller: non-None BC on a periodic direction");
      }
    }
  }
}

void BoundaryFiller::fill(LevelData& level) const {
  // Dimension sweep: later directions overwrite edge/corner ghosts using
  // the earlier directions' results, so composite corners end consistent.
  for (int d = 0; d < SpaceDim; ++d) {
    for (std::size_t b = 0; b < level.size(); ++b) {
      fillBoxDim(level, b, d);
    }
  }
}

void BoundaryFiller::fillBoxDim(LevelData& level, std::size_t b,
                                int d) const {
  const Box dom = layout_.domain().box();
  const Box valid = level.validBox(b);
  if (valid.lo(d) == dom.lo(d) &&
      spec_.type[static_cast<std::size_t>(d)][0] != BCType::None) {
    fillSide(level[b], valid, d, 0);
  }
  if (valid.hi(d) == dom.hi(d) &&
      spec_.type[static_cast<std::size_t>(d)][1] != BCType::None) {
    fillSide(level[b], valid, d, 1);
  }
}

bool BoundaryFiller::active(const Box& valid, int d) const {
  const Box dom = layout_.domain().box();
  return (valid.lo(d) == dom.lo(d) &&
          spec_.type[static_cast<std::size_t>(d)][0] != BCType::None) ||
         (valid.hi(d) == dom.hi(d) &&
          spec_.type[static_cast<std::size_t>(d)][1] != BCType::None);
}

void BoundaryFiller::fillSide(FArrayBox& fab, const Box& valid, int d,
                              int side) const {
  const BCType type =
      spec_.type[static_cast<std::size_t>(d)][static_cast<std::size_t>(
          side)];
  const int nghost = valid.lo(d) - fab.box().lo(d);
  // The slab spans the box's full allocated cross-section so corners are
  // covered by the dimension sweep.
  const int edge = side == 0 ? valid.lo(d) : valid.hi(d);
  const int inward = side == 0 ? 1 : -1; // toward the interior

  const int vd = d + 1; // face-normal velocity component (exemplar layout)
  for (int c = 0; c < fab.nComp(); ++c) {
    Real* p = fab.dataPtr(c);
    for (int k = 0; k < nghost; ++k) {
      // Ghost plane at distance k+1 outside the face.
      const int gcoord = edge - inward * (k + 1);
      IntVect lo = fab.box().lo();
      IntVect hi = fab.box().hi();
      lo[d] = gcoord;
      hi[d] = gcoord;
      const Box ghostPlane(lo, hi);

      switch (type) {
      case BCType::None:
        break;
      case BCType::Reflective:
      case BCType::ReflectiveWall: {
        const Real sign =
            (type == BCType::ReflectiveWall && c == vd) ? -1.0 : 1.0;
        forEachCell(ghostPlane, [&](int i, int j, int k2) {
          IntVect src(i, j, k2);
          src[d] = edge + inward * k; // mirror image
          p[fab.offset(i, j, k2)] =
              sign * p[fab.offset(src[0], src[1], src[2])];
        });
        break;
      }
      case BCType::Extrapolate: {
        // Cubic through the 4 nearest interior cells, evaluated one-plus-k
        // cells outside: x = -(k+1) relative to node 0 at the edge cell.
        const auto w = cubicWeights(-static_cast<Real>(k + 1));
        forEachCell(ghostPlane, [&](int i, int j, int k2) {
          Real value = 0.0;
          for (int m = 0; m < 4; ++m) {
            IntVect src(i, j, k2);
            src[d] = edge + inward * m;
            value += w[static_cast<std::size_t>(m)] *
                     p[fab.offset(src[0], src[1], src[2])];
          }
          p[fab.offset(i, j, k2)] = value;
        });
        break;
      }
      case BCType::Dirichlet: {
        const Real target = spec_.dirichletValue;
        forEachCell(ghostPlane, [&](int i, int j, int k2) {
          IntVect src(i, j, k2);
          src[d] = edge + inward * k;
          p[fab.offset(i, j, k2)] =
              2.0 * target - p[fab.offset(src[0], src[1], src[2])];
        });
        break;
      }
      }
    }
  }
}

} // namespace fluxdiv::grid
