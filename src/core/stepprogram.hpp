#pragma once
// The symbolic step-program layer: the recorded RK substep chain
// (core::StepProgram) and the logical tiles the lowering cuts each box
// into (logicalTiles). Halo width is fixed by the stencil, not planned
// per op: every exchange fills kNumGhost ghost layers and every compute
// op runs on the valid region. Split out of stepgraph.hpp so the analysis
// library — which deliberately does not link the executors — can
// interpret and verify step programs (analysis/stepcheck) with only the
// variant layer underneath it.
// stepgraph.hpp re-exports everything here; executor-side types
// (StepRhsSpec, StepGraphExecutor) stay there.

#include <cstddef>
#include <string>
#include <vector>

#include "core/variant.hpp"
#include "grid/box.hpp"
#include "grid/real.hpp"

namespace fluxdiv::core {

/// One recorded operation of a step program. Slots name LevelData-shaped
/// storage: slot 0 is the solution u, slots >= 1 are the integrator's
/// stage temporaries.
enum class StepOpKind {
  Exchange,     ///< fill slot's ghost cells from neighbors
  BoundaryFill, ///< apply physical BCs to slot's domain-boundary ghosts
  RhsEval,      ///< dst = -(1/dx) div F(src) [+ dissipation Lap(src)]
  CopySlot,     ///< dst = src on the valid region
  AxpySlot,     ///< dst += scale * src on the valid region
  ScaleSlot,    ///< dst *= scale on the valid region
};

struct StepOp {
  StepOpKind kind = StepOpKind::Exchange;
  int dst = 0;            ///< slot written (Exchange/BoundaryFill: filled)
  int src = 0;            ///< slot read (RhsEval/CopySlot/AxpySlot)
  grid::Real scale = 0.0; ///< AxpySlot / ScaleSlot coefficient
  int step = 0;           ///< time-step index within a multi-step capture

  bool operator==(const StepOp&) const = default;
};

/// The recorded substep chain of one (or several) RK time steps, built by
/// solvers::buildStepProgram. Purely symbolic: no storage, no layout.
struct StepProgram {
  int nSlots = 1;   ///< slot 0 = u; 1..nSlots-1 = stage temporaries
  int rhsEvals = 0; ///< RHS evaluations per time step
  int nSteps = 1;   ///< consecutive time steps captured
  std::vector<StepOp> ops;
  std::vector<std::string> slotNames; ///< size nSlots, for task labels

  /// Builder helpers; `step` is the current time-step index.
  void exchange(int slot, int step = 0) {
    ops.push_back({StepOpKind::Exchange, slot, slot, 0.0, step});
  }
  void boundaryFill(int slot, int step = 0) {
    ops.push_back({StepOpKind::BoundaryFill, slot, slot, 0.0, step});
  }
  void rhs(int src, int dst, int step = 0) {
    ops.push_back({StepOpKind::RhsEval, dst, src, 0.0, step});
  }
  void copy(int src, int dst, int step = 0) {
    ops.push_back({StepOpKind::CopySlot, dst, src, 0.0, step});
  }
  void axpy(int dst, int src, grid::Real scale, int step = 0) {
    ops.push_back({StepOpKind::AxpySlot, dst, src, scale, step});
  }
  void scale(int dst, grid::Real s, int step = 0) {
    ops.push_back({StepOpKind::ScaleSlot, dst, dst, s, step});
  }

  [[nodiscard]] const std::string& slotName(int s) const {
    return slotNames[static_cast<std::size_t>(s)];
  }
};

/// Ghost layers the storage of slot `s` of `prog` needs: kNumGhost when
/// the program exchanges the slot, fills its boundary, or reads it as an
/// RHS source; 0 when it is only written and read on the valid region (an
/// RHS output such as RK4's k, or a combine accumulator such as acc). The
/// eager interpreter and the step-graph capture both size their stage
/// levels by it.
int slotGhosts(const StepProgram& prog, int s);

/// Side in y and z of a logical tile. A fixed constant: on a 4-core Xeon,
/// an RK4 step of one 128^3 box took 20% less time with 16-wide tiles
/// than with 32-wide ones at 4 threads, and the same at 1 and 2 threads
/// (docs/perf.md, "Logical tiles").
inline constexpr int kLogicalTileWidth = 16;

/// The logical tiles (BoxLib-style tiling) the step-graph lowering cuts
/// the valid region of one box into under LevelPolicy::BoxParallel: x-long
/// tiles spanning the full x extent, with y and z cut every
/// kLogicalTileWidth cells of the interior valid.grow(-kNumGhost). The
/// first and last tile in y and z also cover the kNumGhost-wide rim, and
/// the last one is ragged. The tiles partition `valid`, z-outer, y-inner.
/// A box whose interior spans at most kLogicalTileWidth cells in y and z
/// is one tile, `valid` itself.
std::vector<grid::Box> logicalTiles(const grid::Box& valid);

} // namespace fluxdiv::core
