#pragma once
// Deterministic initialization of the exemplar solution. The value of each
// (cell, component) is a smooth function of the *global* cell coordinates,
// so two LevelData objects on different box decompositions of the same
// domain hold identical global fields — the property the cross-box-size
// equivalence tests and the equal-work benchmarks rely on.

#include "grid/leveldata.hpp"

namespace fluxdiv::kernels {

/// Smooth, strictly positive value for global cell (i,j,k), component c,
/// on a domain of extent (nx,ny,nz) cells. Periodic in every direction.
grid::Real exemplarValue(int i, int j, int k, int c, const grid::Box& domain);

/// Fill every box of `phi` with exemplarValue: the valid region, and each
/// ghost cell exchange() would fill with its periodic image's value (the
/// cells exchange() leaves to boundary conditions stay untouched).
void initializeExemplar(grid::LevelData& phi);

/// Fill valid + ghost cells of a single standalone FArrayBox directly from
/// exemplarValue (for single-box tests that bypass LevelData).
void initializeExemplar(grid::FArrayBox& fab, const grid::Box& domain);

} // namespace fluxdiv::kernels
