#pragma once
// The schedule model: an explicit intermediate representation of what one
// scheduling variant does to the exemplar's data — which stages run, over
// which regions, in which concurrency structure. lowerVariant()
// (lower.hpp) builds it from a VariantConfig; the static cost model
// (costmodel.hpp) prices it. Whether the executors are legal is checked
// on the executors themselves: the equivalence and runner-replay tests,
// the kernel-contract gate and the shadow race detector
// (docs/static-analysis.md).
//
// Concurrency is expressed two ways, matching how the executors create it:
//   * Phase: a barrier-delimited group of WorkItems that execute
//     concurrently; each item runs its stage list sequentially. Used for
//     z-slab teams, overlapped tiles, and tile wavefront fronts.
//   * ConeCheck: a symbolic wavefront over a lattice (cells or tile
//     coordinates) grouped into fronts by a skew vector. Used for the
//     per-cell wavefronts, whose fronts are far too large to enumerate
//     item by item; the cost model reads their front count and widths.

#include <string>
#include <vector>

#include "grid/box.hpp"
#include "grid/intvect.hpp"

namespace fluxdiv::analysis {

using grid::Box;
using grid::IntVect;

/// The abstract storage locations the pipeline touches. Cache fields are
/// the co-dimension flux caches of the wavefront schedules: CacheX is
/// indexed by (y, z) only, and so on (the masked direction is projected
/// out of their slot boxes).
enum class FieldId {
  Phi0,     ///< ghosted input solution (read-only during a step)
  Phi1,     ///< output solution (flux differences accumulate here)
  Flux,     ///< face-centered flux temporary (baseline / basic OT)
  Velocity, ///< face-averaged velocity temporary
  CacheX,   ///< co-dimension flux caches (blocked/cell wavefronts)
  CacheY,
  CacheZ,
};

/// Whether a temporary is private to one work item (per-thread/per-tile
/// scratch: never conflicts across items, must be produced by the item
/// itself) or shared by all items (level/box-wide storage: conflicts and
/// cross-item production are both possible).
enum class StorageClass { Shared, Private };

/// One rectangular access of a stage: `box` is in cell/face index space
/// for grid fields, and in slot space for cache fields (the masked
/// direction collapsed to [0, 0]).
struct Access {
  FieldId field = FieldId::Phi0;
  StorageClass storage = StorageClass::Shared;
  int comp0 = 0;
  int nComp = 1;
  Box box;
};

/// One executor pass (e.g. EvalFlux1 of one direction and component over
/// a slab, or the whole fused sweep of a tile), with its declared reads
/// and writes. `scratchGroup` >= 0 names the tile whose private scratch
/// the pass uses when one item runs several tiles in sequence (the serial
/// overlapped-tile traversal): the cost model lays each group's private
/// boxes over one tile-sized workspace, as the executor reuses it.
struct StageExec {
  int scratchGroup = -1;
  std::vector<Access> reads;
  std::vector<Access> writes;
};

/// A sequential stream of stages executed by one worker/tile/slab.
struct WorkItem {
  std::vector<StageExec> stages;
};

/// Barrier-delimited group of concurrently-executing items. Phases execute
/// in order with an implied barrier between them (exactly the dependence
/// joins between the phases of FluxDivRunner's within-box task graphs).
struct Phase {
  std::string name;
  std::vector<WorkItem> items;
};

/// Symbolic wavefront: the executor iterates `lattice` grouped into fronts
/// by skew . (p - lattice.lo); iterations within one front run
/// concurrently.
struct ConeCheck {
  Box lattice;
  IntVect skew = IntVect::unit(1);
};

/// The complete lowered schedule of one variant over one box.
struct ScheduleModel {
  std::string variant; ///< display name (CostReport::variant)
  Box valid;           ///< the cell region being computed
  std::vector<ConeCheck> cones;
  std::vector<Phase> phases;
};

} // namespace fluxdiv::analysis
