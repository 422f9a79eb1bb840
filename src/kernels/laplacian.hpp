#pragma once
// 7-point Laplacian — the artificial-dissipation / stabilization stencil
// CFD steps add to the flux divergence (the "non-linear stabilization
// mechanisms" the paper cites as one reason ghost layers exist at all,
// Sec. I). Used by solvers::FluxDivRhs's optional dissipation term.

#include <cstdint>

#include "grid/farraybox.hpp"
#include "grid/leveldata.hpp"

namespace fluxdiv::kernels {

/// One x-row of addLaplacian: out[i] += scale * Lap(p)[i] for n cells,
/// where `p` points at the row's first cell of phi (y/z strides sy, sz)
/// and `out` at the matching output row. addLaplacian and the step
/// graph's row epilogue both call it, so both round alike.
inline void addLaplacianRow(const grid::Real* p, std::int64_t sy,
                            std::int64_t sz, int n, grid::Real scale,
                            grid::Real* out) {
  for (int i = 0; i < n; ++i) {
    out[i] += scale * (p[i - 1] + p[i + 1] + p[i - sy] + p[i + sy] +
                       p[i - sz] + p[i + sz] - 6.0 * p[i]);
  }
}

/// out[c] += scale * Lap(phi[c]) over `valid` for every component, with
/// Lap the standard 2nd-order 7-point stencil times invDx^2 (folded into
/// `scale`). phi needs >= 1 ghost layer.
void addLaplacian(const grid::FArrayBox& phi, grid::FArrayBox& out,
                  const grid::Box& valid, grid::Real scale);

/// Level-wide: out[b] += scale * Lap(phi[b]) on every box, serially.
/// phi's ghosts must be exchanged.
void addLaplacian(const grid::LevelData& phi, grid::LevelData& out,
                  grid::Real scale);

} // namespace fluxdiv::kernels
