#include "grid/norms.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace fluxdiv::grid {

namespace {

/// Reduce f(value) over the valid cells of one component, box by box in
/// layout order: one summation order, so one result.
template <typename F>
Real reduceValid(const LevelData& level, int comp, F&& f) {
  if (comp < 0 || comp >= level.nComp()) {
    throw std::out_of_range("norms: component out of range");
  }
  Real total = 0.0;
  for (std::size_t b = 0; b < level.size(); ++b) {
    const FArrayBox& fab = level[b];
    const FabIndexer ix = fab.indexer();
    const Real* p = fab.dataPtr(comp);
    Real local = 0.0;
    forEachCell(level.validBox(b), [&](int i, int j, int k) {
      local += f(p[ix(i, j, k)]);
    });
    total += local;
  }
  return total;
}

} // namespace

Real levelSum(const LevelData& level, int comp) {
  return reduceValid(level, comp, [](Real v) { return v; });
}

Real levelNormL1(const LevelData& level, int comp) {
  return reduceValid(level, comp, [](Real v) { return std::abs(v); });
}

Real levelNormL2(const LevelData& level, int comp) {
  return std::sqrt(
      reduceValid(level, comp, [](Real v) { return v * v; }));
}

Real levelNormInf(const LevelData& level, int comp) {
  if (comp < 0 || comp >= level.nComp()) {
    throw std::out_of_range("norms: component out of range");
  }
  Real worst = 0.0;
  for (std::size_t b = 0; b < level.size(); ++b) {
    const FArrayBox& fab = level[b];
    const FabIndexer ix = fab.indexer();
    const Real* p = fab.dataPtr(comp);
    forEachCell(level.validBox(b), [&](int i, int j, int k) {
      // std::max(worst, NaN) would keep worst; once worst is NaN,
      // std::max(worst, v) keeps it.
      const Real v = std::abs(p[ix(i, j, k)]);
      worst = std::isnan(v) ? v : std::max(worst, v);
    });
  }
  return worst;
}

std::array<Real, 8> levelSums(const LevelData& level) {
  assert(level.nComp() <= 8);
  std::array<Real, 8> sums{};
  for (int c = 0; c < level.nComp(); ++c) {
    sums[static_cast<std::size_t>(c)] = levelSum(level, c);
  }
  return sums;
}

} // namespace fluxdiv::grid
