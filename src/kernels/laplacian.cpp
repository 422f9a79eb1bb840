#include "kernels/laplacian.hpp"

#include <cassert>

#include "kernels/exemplar.hpp"

namespace fluxdiv::kernels {

using grid::Box;
using grid::FArrayBox;
using grid::LevelData;

void addLaplacian(const FArrayBox& phi, FArrayBox& out, const Box& valid,
                  grid::Real scale) {
  assert(phi.box().contains(valid.grow(1)));
  assert(out.box().contains(valid));
  assert(phi.nComp() == out.nComp());
  const std::int64_t sy = phi.strideY();
  const std::int64_t sz = phi.strideZ();
  const int nx = valid.size(0);
  for (int c = 0; c < phi.nComp(); ++c) {
    const Real* p = phi.dataPtr(c);
    Real* o = out.dataPtr(c);
    for (int k = valid.lo(2); k <= valid.hi(2); ++k) {
      for (int j = valid.lo(1); j <= valid.hi(1); ++j) {
        addLaplacianRow(p + phi.offset(valid.lo(0), j, k), sy, sz, nx,
                        scale, o + out.offset(valid.lo(0), j, k));
      }
    }
  }
}

void addLaplacian(const LevelData& phi, LevelData& out, grid::Real scale) {
  assert(phi.size() == out.size());
  for (std::size_t b = 0; b < phi.size(); ++b) {
    addLaplacian(phi[b], out[b], phi.validBox(b), scale);
  }
}

} // namespace fluxdiv::kernels
