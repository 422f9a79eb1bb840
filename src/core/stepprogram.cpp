#include "core/stepprogram.hpp"

#include <algorithm>
#include <array>

#include "kernels/footprint.hpp"

namespace fluxdiv::core {

using kernels::kNumGhost;

StepHaloPlan planStepHalos(const StepProgram& prog, StepFuse fuse) {
  StepHaloPlan plan;
  plan.width.assign(prog.ops.size(), 0);
  if (fuse != StepFuse::CommAvoid) {
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      if (prog.ops[i].kind == StepOpKind::Exchange) {
        plan.width[i] = kNumGhost;
        plan.depth = kNumGhost;
      }
    }
    return plan;
  }
  // Comm-avoiding transform: walk the program backward tracking, per slot,
  // how many ghost layers of it the remaining ops still need. An RHS
  // evaluation at width w consumes kNumGhost extra layers of its source; a
  // copy/axpy propagates its own width; only the per-time-step exchange of
  // the solution slot survives, deepened to cover the whole chain (every
  // intermediate exchange/BC fill is dropped, width -1, and replaced by
  // recomputation on the widened halo).
  std::vector<int> needed(static_cast<std::size_t>(prog.nSlots), 0);
  const auto need = [&](int slot) -> int& {
    return needed[static_cast<std::size_t>(slot)];
  };
  for (std::size_t ri = prog.ops.size(); ri-- > 0;) {
    const StepOp& op = prog.ops[ri];
    switch (op.kind) {
    case StepOpKind::Exchange:
      if (op.dst == 0) {
        plan.width[ri] = need(0);
        plan.depth = std::max(plan.depth, need(0));
        need(0) = 0;
      } else {
        plan.width[ri] = -1; // recomputed on the widened halo instead
      }
      break;
    case StepOpKind::BoundaryFill:
      plan.width[ri] = -1; // CommAvoid requires a fully periodic domain
      break;
    case StepOpKind::RhsEval: {
      const int w = need(op.dst);
      plan.width[ri] = w;
      need(op.dst) = 0;
      need(op.src) = std::max(need(op.src), w + kNumGhost);
      break;
    }
    case StepOpKind::CopySlot: {
      const int w = need(op.dst);
      plan.width[ri] = w;
      need(op.dst) = 0;
      need(op.src) = std::max(need(op.src), w);
      break;
    }
    case StepOpKind::AxpySlot: {
      const int w = need(op.dst);
      plan.width[ri] = w;
      need(op.src) = std::max(need(op.src), w);
      break;
    }
    case StepOpKind::ScaleSlot:
      plan.width[ri] = need(op.dst);
      break;
    }
  }
  return plan;
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
