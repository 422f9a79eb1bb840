#pragma once
// Level-wide diagnostics: discrete norms and integrals over the valid
// cells of a LevelData. These are the quantities a PDE framework reports
// every step (conserved totals, residual norms) and the tests use to
// state properties compactly.

#include <array>

#include "grid/leveldata.hpp"

namespace fluxdiv::grid {

/// Sum of component c over all valid cells (the conserved total).
Real levelSum(const LevelData& level, int comp);

/// L1 norm: sum of |u| over valid cells of component c.
Real levelNormL1(const LevelData& level, int comp);

/// L2 norm: sqrt(sum of u^2) over valid cells of component c.
Real levelNormL2(const LevelData& level, int comp);

/// Max norm over valid cells of component c; NaN if any value is NaN.
Real levelNormInf(const LevelData& level, int comp);

/// All components' conserved totals at once.
std::array<Real, 8> levelSums(const LevelData& level);

} // namespace fluxdiv::grid
