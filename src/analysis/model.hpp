#pragma once
// The schedule model: an explicit intermediate representation of what one
// scheduling variant does to the exemplar's data — which stages run, over
// which regions, in which concurrency structure. lowerVariant()
// (lower.hpp) builds a model that mirrors the executors in src/core
// exactly; ScheduleVerifier (verifier.hpp) then proves the model legal by
// pure box arithmetic. Deliberately-broken models (mutate.hpp) demonstrate
// that each legality rule actually rejects.
//
// Concurrency is expressed two ways, matching how the executors create it:
//   * Phase: a barrier-delimited group of WorkItems that execute
//     concurrently; each item runs its stage list sequentially. Used for
//     z-slab teams, overlapped tiles, and tile wavefront fronts, where the
//     item count is small enough to check pairwise.
//   * ConeCheck: a symbolic wavefront over a lattice (cells or tile
//     coordinates) with a skew vector and carried dependence vectors. Used
//     for the per-cell wavefronts, whose fronts are far too large to
//     enumerate pairwise but whose legality is exactly "the skew strictly
//     dominates the dependence cone, and same-front iterations never share
//     a storage slot".

#include <array>
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

const char* fieldName(FieldId f);

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

  /// True if the two accesses can touch the same memory.
  [[nodiscard]] bool overlaps(const Access& o) const {
    return field == o.field && comp0 < o.comp0 + o.nComp &&
           o.comp0 < comp0 + nComp && box.intersects(o.box);
  }
};

/// One executor pass (e.g. "EvalFlux1[d=2,c=4]" over a slab, or the whole
/// fused sweep of a tile), with its declared reads and writes.
struct StageExec {
  std::string stage;
  std::vector<Access> reads;
  std::vector<Access> writes;
};

/// A sequential stream of stages executed by one worker/tile/slab.
struct WorkItem {
  std::string name;
  std::vector<StageExec> stages;
};

/// Barrier-delimited group of concurrently-executing items. Phases execute
/// in order with an implied barrier between them (exactly the dependence
/// joins between the phases of FluxDivRunner's within-box task graphs).
struct Phase {
  std::string name;
  std::vector<WorkItem> items;
};

/// Symbolic wavefront legality record. The executor iterates `lattice`
/// grouped into fronts by skew . (p - lattice.lo); iterations within one
/// front run concurrently.
struct ConeCheck {
  std::string name;
  Box lattice;
  IntVect skew = IntVect::unit(1);

  /// A loop-carried flow dependence: iteration u produces (producerStage)
  /// what iteration u + vector consumes (consumerStage).
  struct Dep {
    IntVect vector;
    std::string producerStage;
    std::string consumerStage;
  };
  std::vector<Dep> deps;

  /// A per-iteration write, for the same-front slot-collision check.
  /// `indexed[d]` says whether direction d addresses the field's storage;
  /// co-dimension caches project one direction out (CacheZ is indexed by
  /// (x, y), so indexed = {1, 1, 0} and any two iterations differing only
  /// in z write the same slot).
  struct LatticeWrite {
    FieldId field = FieldId::Phi1;
    std::string stage;
    std::array<bool, 3> indexed{true, true, true};
  };
  std::vector<LatticeWrite> writes;
};

/// The complete lowered schedule of one variant over one box.
struct ScheduleModel {
  std::string variant; ///< display name for diagnostics
  Box valid;           ///< the cell region being computed
  int ghost = 0;       ///< ghost layers available on Phi0
  std::vector<ConeCheck> cones;
  std::vector<Phase> phases;
};

} // namespace fluxdiv::analysis
