#pragma once
// Static working-set / memory-traffic analyzer over lowered ScheduleModels
// (lower.hpp). It predicts whether a schedule is *fast* — per-phase
// working sets, DRAM traffic under a cache-capacity model, recomputation
// volume, and parallelism metrics — all from the declared rectangular
// access regions, without executing a kernel. Whether a schedule is
// correct is checked on the executors (docs/static-analysis.md). docs/cost-model.md derives the equations; the memmodel cache
// simulator cross-validates the traffic prediction in tests.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/model.hpp"
#include "core/variant.hpp"

namespace fluxdiv::harness {
struct MachineInfo;
} // namespace fluxdiv::harness

namespace fluxdiv::analysis {

/// The cache capacities the static model prices a schedule against. Only
/// capacities matter here — the model counts distinct bytes, not lines or
/// conflict misses (docs/cost-model.md states the resulting tolerance).
struct CacheSpec {
  std::size_t l2Bytes = 256 * 1024;
  std::size_t llcBytes = 6 * 1024 * 1024;
  std::size_t lineBytes = 64;

  /// Allocation x-pitch multiple of the fabs being modeled (doubles).
  /// Working sets round each region's x-extent up to this, pricing the
  /// pad lanes that occupy cache alongside the referenced row (rows are
  /// contiguous with their slack). Traffic stays logical: pad lanes are
  /// never referenced, and the CacheSim cross-validation oracle replays a
  /// dense trace. 1 models Pitch::Dense; set to grid::kSimdDoubles to
  /// model the default padded allocation (advisor --pad).
  int xPadDoubles = 1;

  /// Derive a spec from a probed machine description: LLC = last-level
  /// data/unified cache, L2 = the largest level-2 entry. Zero-sized
  /// detection results are replaced by the documented harness defaults.
  static CacheSpec fromMachine(const harness::MachineInfo& info);

  /// The desktop-class hierarchy memmodel::CacheSim::makeTypical models
  /// (256 KiB L2, 6 MiB LLC) — the cross-validation baseline.
  static CacheSpec typical() { return {}; }
};

/// Kinds of structured cost findings, mirroring the checkers'
/// diagnostics: machine-readable kind + human-readable message().
enum class CostNoteKind {
  CapacityBound,  ///< a phase's working set exceeds the LLC
  ItemExceedsL2,  ///< a concurrent work item's footprint exceeds L2
  HighRecompute,  ///< duplicated temporary production above threshold
  OverSynchronized, ///< task graph carries removable dependency edges
  OverdeclaredFootprint, ///< declared stencil offsets no kernel reads
  DeadStore,      ///< step op writes values nothing reads (stepcheck S2)
  ModelError,     ///< internal inconsistency (tool-level strict checks)
};

const char* costNoteKindName(CostNoteKind k);

/// One structured advisor explanation, e.g. "phase 'fused sweep c=2'
/// working set 18.9 MiB > LLC 12.0 MiB -> capacity-bound".
struct CostNote {
  CostNoteKind kind = CostNoteKind::CapacityBound;
  std::string where;          ///< phase or item the note is about
  double actualBytes = 0;     ///< offending size; edge count for OverSynchronized
  double limitBytes = 0;      ///< capacity compared against; total edges for OverSynchronized
  double fraction = 0;        ///< ratio detail for HighRecompute

  [[nodiscard]] std::string message() const;
};

/// Per-phase slice of the analysis.
struct PhaseCost {
  std::string name;
  double workingSetBytes = 0; ///< distinct bytes the phase touches
  double maxItemBytes = 0;    ///< largest single work item footprint
  int items = 1;              ///< concurrently-executing items
};

/// The complete static cost analysis of one lowered schedule.
struct CostReport {
  std::string variant;
  std::int64_t validCells = 0;

  // (a) working sets
  double workingSetBytes = 0; ///< max over phases
  double maxItemBytes = 0;    ///< max over all work items

  // (b) predicted DRAM traffic for one evaluation of the box
  double trafficBytes = 0;
  double compulsoryBytes = 0; ///< cold-cache floor: phi0 in, 2x phi1 out
  double bytesPerCell = 0;    ///< trafficBytes / validCells

  // (c) recomputation volume
  double recomputeCells = 0;   ///< temporary values produced more than once
  double recomputeFraction = 0; ///< recomputeCells / all produced values

  // (d) parallelism
  int maxConcurrency = 1;      ///< largest phase item count / wavefront front
  double avgConcurrency = 1;   ///< total items / barrier count
  std::int64_t barrierCount = 0; ///< phases executed (explicit barriers)
  std::int64_t frontCount = 0;   ///< wavefront fronts across all cones

  bool capacityBound = false; ///< some phase working set exceeds the LLC
  std::vector<PhaseCost> phases;
  std::vector<CostNote> notes;
};

/// Analyze a lowered model against a cache spec. `nWorkers` bounds how
/// many concurrent items hold private scratch simultaneously (the model
/// exposes *available* concurrency — e.g. every overlapped tile — while
/// scratch is allocated per executing worker); 0 means "one per item".
CostReport analyzeCost(const ScheduleModel& m, const CacheSpec& spec,
                       int nWorkers = 0);

/// Convenience: lower `cfg` over an N^3 box with `nThreads` workers first.
CostReport analyzeCost(const core::VariantConfig& cfg, int boxSize,
                       int nThreads, const CacheSpec& spec);

/// Predicted concurrency profile of one LevelPolicy (the step graphs' task
/// granularity, core/variant.hpp) evaluating a level of `nBoxes` boxes:
/// task counts, DAG depth, and a quantized available-parallelism speedup
/// estimate vs the box-sequential loop.
struct LevelPolicyCost {
  core::LevelPolicy policy = core::LevelPolicy::BoxSequential;
  int nBoxes = 1;
  std::int64_t taskCount = 0;     ///< tasks (or sequential loop bodies)
  std::int64_t depth = 1;         ///< critical-path length in tasks/phases
  std::int64_t maxConcurrency = 1;///< widest set of independent units
  double avgConcurrency = 1;      ///< taskCount / depth
  std::int64_t barrierCount = 0;  ///< full join points per evaluation
  double predictedSpeedup = 1;    ///< vs BoxSequential, capped by nThreads
};

/// Analyze both level policies for `cfg` over `nBoxes` boxes of side
/// `boxSize` with `nThreads` workers. The per-box metrics (within-box
/// concurrency, barriers) come from analyzeCost over the lowered schedule;
/// the level-scale metrics count the tasks the step graphs build: one per
/// box under sequential, nBoxes x core::logicalTiles per box under
/// parallel. Returned in kLevelPolicies order.
std::vector<LevelPolicyCost> analyzeLevelPolicies(
    const core::VariantConfig& cfg, int boxSize, int nBoxes, int nThreads,
    const CacheSpec& spec);

/// The same from an already computed `box` = analyzeCost(cfg, boxSize,
/// nThreads, spec), so a caller that already holds that report lowers and
/// analyzes the variant once.
std::vector<LevelPolicyCost> analyzeLevelPolicies(const CostReport& box,
                                                  int boxSize, int nBoxes,
                                                  int nThreads);

} // namespace fluxdiv::analysis
