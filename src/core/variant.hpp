#pragma once
// Descriptors for the inter-loop scheduling variants of paper Sec. IV, and
// the registry that enumerates the practical configurations studied
// (~30-40 of the 328 possible combinations; Sec. IV-E footnote).

#include <array>
#include <string>
#include <vector>

namespace fluxdiv::core {

/// The four broad schedule categories of Sec. IV.
enum class ScheduleFamily {
  SeriesOfLoops,    ///< IV-A: the original modular loops ("Baseline")
  ShiftFuse,        ///< IV-B: face loops shifted + fused with cell loops
  BlockedWavefront, ///< IV-C: shift-fuse inside tiles, tile wavefronts
  OverlappedTiles,  ///< IV-D: tiles recompute boundary fluxes ("OT")
};

/// Intra-tile schedule for OverlappedTiles ("Basic-Sched OT" runs the
/// series-of-loops schedule inside each tile, "Shift-Fuse OT" the fused
/// one). Ignored by the other families.
enum class IntraTileSchedule { Basic, ShiftFuse };

/// Parallelization granularity: over whole boxes (P >= Box, the Chombo/MPI
/// proxy), within a box (P < Box: z-slabs, cell wavefronts, or tiles,
/// depending on the family), or — an extension in the spirit of the
/// hierarchical overlapped tiling the paper cites (Zhou et al. [50]) —
/// over the flattened (box, tile) pairs of the whole level
/// (overlapped tiles only).
enum class ParallelGranularity { OverBoxes, WithinBox, HybridBoxTile };

/// Position of the loop over the solution components (Sec. IV axes).
enum class ComponentLoop { Outside, Inside };

/// Task granularity of the step graphs (core/stepgraph.hpp): how each RHS
/// evaluation and stage combine over a whole LevelData becomes tasks.
/// Orthogonal to ParallelGranularity, which describes the *within-box*
/// schedule: the policy decides what becomes a task, the family's serial
/// schedule what each task runs.
enum class LevelPolicy {
  BoxSequential, ///< one whole-box task per box and op
  BoxParallel,   ///< per box an interior task plus six halo-fringe slabs
  Hybrid,        ///< (box x tile) tasks for overlapped tiles, else as above
};

/// Display / CLI name: "sequential", "parallel", "hybrid".
[[nodiscard]] const char* levelPolicyName(LevelPolicy policy);

/// Parse a policy name (the --policy and workload-spec `policy=` values).
/// Returns false and leaves `out` untouched on an unknown name.
bool parseLevelPolicy(const std::string& text, LevelPolicy& out);

/// All three policies, in ranking/report order.
inline constexpr LevelPolicy kLevelPolicies[] = {
    LevelPolicy::BoxSequential,
    LevelPolicy::BoxParallel,
    LevelPolicy::Hybrid,
};

/// How one whole RK step runs. Orthogonal to LevelPolicy, which decides
/// the per-evaluation task granularity: the fuse mode decides whether the
/// step is the eager level-wide loop or one task graph
/// (core/stepgraph.hpp), and whether that graph's per-stage ghost
/// exchanges are replaced by deepened-halo recomputation (paper Sec. IV-D
/// generalized from intra-step to inter-step).
enum class StepFuse {
  Eager,     ///< reference path: eager exchange -> BC -> rhs -> axpy loops
  Fused,     ///< one task graph for the whole step, cross-stage deps only
  CommAvoid, ///< one deepened exchange, stages recompute on widened halos
};

/// Display / CLI name: "eager", "fused", "commavoid".
[[nodiscard]] const char* stepFuseName(StepFuse fuse);

/// Parse a fuse-mode name (the --fuse and workload-spec `fuse=` values).
/// Returns false and leaves `out` untouched on an unknown name.
bool parseStepFuse(const std::string& text, StepFuse& out);

/// All three fuse modes, in ranking/report order.
inline constexpr StepFuse kStepFuseModes[] = {
    StepFuse::Eager,
    StepFuse::Fused,
    StepFuse::CommAvoid,
};

/// Tile shape for the tiled families — an extension exploring the partial
/// blocking of Rivera & Tseng that the paper's related work discusses
/// (the Mint compiler reference, Sec. V-A). `Cube` is the paper's T^3;
/// `Pencil` keeps the unit-stride x direction untiled (N x T x T);
/// `Slab` tiles only z (N x N x T).
enum class TileAspect { Cube, Pencil, Slab };

/// Traversal order of independent (overlapped) tiles — another of the
/// "328 possible" axes: lexicographic or Morton/Z-order (spatial
/// locality between consecutively-scheduled tiles).
enum class TileOrder { Lexicographic, Morton };

/// One concrete scheduling variant.
struct VariantConfig {
  ScheduleFamily family = ScheduleFamily::SeriesOfLoops;
  IntraTileSchedule intra = IntraTileSchedule::Basic;
  ParallelGranularity par = ParallelGranularity::OverBoxes;
  ComponentLoop comp = ComponentLoop::Outside;
  int tileSize = 0; ///< 0 for untiled families
  TileAspect aspect = TileAspect::Cube;
  TileOrder order = TileOrder::Lexicographic; ///< OverlappedTiles only

  /// Legend-style display name matching the paper's figures, e.g.
  /// "Baseline-CLO: P>=Box", "Shift-Fuse OT-8: P<Box",
  /// "Blocked WF-CLO-16: P<Box".
  [[nodiscard]] std::string name() const;

  /// True if this configuration is runnable on boxes of side `boxSize`
  /// (tiled families need 0 < tileSize <= boxSize).
  [[nodiscard]] bool validFor(int boxSize) const;

  bool operator==(const VariantConfig&) const = default;
};

/// Shorthand constructors for the variants highlighted in the paper.
VariantConfig makeBaseline(ParallelGranularity par,
                           ComponentLoop comp = ComponentLoop::Outside);
VariantConfig makeShiftFuse(ParallelGranularity par,
                            ComponentLoop comp = ComponentLoop::Outside);
VariantConfig makeBlockedWF(int tileSize, ParallelGranularity par,
                            ComponentLoop comp);
VariantConfig makeOverlapped(IntraTileSchedule intra, int tileSize,
                             ParallelGranularity par,
                             ComponentLoop comp = ComponentLoop::Outside);

/// All practical variants for a given box size, mirroring the paper's
/// pruning: tile sizes in {4,8,16,32} strictly smaller than the box, and
/// overlapped tiles only with the component loop outside (the inside
/// variants were measured slower untiled and dropped; Sec. IV-E).
/// With `includeExtensions`, the beyond-paper axes are appended for the
/// overlapped-tile family: hybrid box-x-tile granularity, pencil/slab
/// tile aspects, and Morton traversal order.
std::vector<VariantConfig> enumerateVariants(int boxSize,
                                             bool includeExtensions = false);

/// The tile sizes the paper sweeps.
inline constexpr int kTileSizes[] = {4, 8, 16, 32};

/// Effective per-direction tile extents of a tiled config on boxes of side
/// `boxSize` (applies the TileAspect).
constexpr std::array<int, 3> tileExtents(const VariantConfig& cfg,
                                         int boxSize) {
  switch (cfg.aspect) {
  case TileAspect::Pencil:
    return {boxSize, cfg.tileSize, cfg.tileSize};
  case TileAspect::Slab:
    return {boxSize, boxSize, cfg.tileSize};
  case TileAspect::Cube:
    break;
  }
  return {cfg.tileSize, cfg.tileSize, cfg.tileSize};
}

} // namespace fluxdiv::core
