#include "core/stepprogram.hpp"

#include <array>

#include "kernels/footprint.hpp"

namespace fluxdiv::core {

using kernels::kNumGhost;

int slotGhosts(const StepProgram& prog, int s) {
  for (const StepOp& op : prog.ops) {
    if ((op.kind == StepOpKind::RhsEval && op.src == s) ||
        (op.kind == StepOpKind::Exchange && op.dst == s) ||
        (op.kind == StepOpKind::BoundaryFill && op.dst == s)) {
      return kNumGhost;
    }
  }
  return 0;
}

std::vector<grid::Box> logicalTiles(const grid::Box& valid) {
  // Tile starts in y and z: the box's low edge, then every
  // kLogicalTileWidth cells of the interior.
  std::array<std::vector<int>, 2> starts;
  for (int d = 1; d < grid::SpaceDim; ++d) {
    std::vector<int>& s = starts[static_cast<std::size_t>(d - 1)];
    s.push_back(valid.lo(d));
    for (int c = valid.lo(d) + kNumGhost + kLogicalTileWidth;
         c <= valid.hi(d) - kNumGhost; c += kLogicalTileWidth) {
      s.push_back(c);
    }
    s.push_back(valid.hi(d) + 1);
  }
  std::vector<grid::Box> tiles;
  for (std::size_t kz = 0; kz + 1 < starts[1].size(); ++kz) {
    for (std::size_t jy = 0; jy + 1 < starts[0].size(); ++jy) {
      grid::IntVect lo = valid.lo();
      grid::IntVect hi = valid.hi();
      lo[1] = starts[0][jy];
      hi[1] = starts[0][jy + 1] - 1;
      lo[2] = starts[1][kz];
      hi[2] = starts[1][kz + 1] - 1;
      tiles.emplace_back(lo, hi);
    }
  }
  return tiles;
}

} // namespace fluxdiv::core
