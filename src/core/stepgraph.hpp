#pragma once
// Lazy whole-RK-step task graphs (docs/perf.md, "Whole-step task graphs").
// The eager time integrator runs each RK stage as a synchronous
// exchange -> BC -> rhs -> axpy round-trip with a level-wide barrier
// between stages. This layer instead *records* the whole substep chain —
// every per-stage ghost exchange, boundary fill, flux-divergence
// evaluation, and copy/axpy stage combine, optionally for several
// consecutive time steps — as a slot-based StepProgram, then lowers it
// into one dependency-tracked core::TaskGraph, so stage-(i+1) tile
// tasks start while stage-i tile/exchange tasks are still in flight, on
// other boxes and on the other tiles of the same box (the
// delayed-execution idea of the OPS runtime-tiling work, applied to our
// RK substep chains).
//
// One graph mode, StepFuse::Fused (TimeIntegrator::advanceEager() is the
// serial reference). A capture is exactly one graph, dispatched
// once per run, over the whole step (or several steps): only true data
// dependencies order tasks across stages. Under the parallel level policy
// each box's RHS runs as one task per logical tile (core::logicalTiles:
// full-x x 16 x 16), so one large box keeps every worker busy and a
// tile's stage-2 compute starts right after its stage-1 producers.
//
// Each RHS task also runs the copy/axpy/scale stage combines that follow
// the RHS in the program, as long as they write neither the RHS's source
// (neighbouring tiles read it through their halos) nor its output. It
// runs them, with the dissipation term, on each finished row of the RHS
// output while the row is in L1: a ShiftFuse sweep streams its output
// row by row (detail::shiftFuseBoxRows), each element summed in a
// register from +0.0 and stored once, so the task has no zero pass; the
// other families sum the tile into a zeroed buffer whose rows the same
// row epilogue then walks. When nothing else reads the RHS output before
// it is overwritten (RK4's and SSPRK3's k), it gets no level: under
// ShiftFuse it is one row of the thread's workspace, otherwise a
// per-thread tile buffer, so k costs no memory pass and no epoch
// barrier. Under the sequential policy k stays a level (a whole-box task
// would need a whole-box buffer per thread). A combine that no RHS
// absorbs, such as Euler's u += dt k, is one task per tile.
//
// The graph is bit-identical to the eager reference, down to the sign of
// a zero: every family accumulates each cell's x, y, z flux differences
// in the same per-cell order from +0.0, the dissipation and combines run
// the eager path's row helpers (kernels::addLaplacianRow, grid::copyRow/
// plusRow/multRow), and RHS and combine tasks partition the valid
// region.
//
// The captured graph is mirrored into an analysis::TaskGraphModel with
// slot-qualified footprints (TaskAccess::slot). In Debug or with
// -DFLUXDIV_VERIFY=ON it is proven race-free by analysis/graphcheck before
// its first execution, and before its first capture the step program is
// proven live (no read of a never-written stage slot) by analysis/
// stepcheck and the exchange plan of every slot level is proven exact
// and matched by analysis/commcheck. An exchange cuts each copy of that
// plan at the logical tiles of its destination box (the tiles on the box
// rim reach out over the ghost frame) and lowers only the pieces whose
// ghost cells a later task reads before the slot's next exchange, each
// kNumGhost layers deep. The RHS reads face ghosts only, so a periodic
// level without BCs gets 6 face copies per box, not 26; a 64^3 box's 4 x
// 4 tiles cut them into 48 pieces, one x-face piece per tile and side,
// so a tile's next stage waits for its own x rim and its y/z neighbour
// tiles only, not for a whole-face copy. graphcheck's ghost-coverage
// rule (G3) proves each reader's ghosts are filled before it runs.
// Shadow-epoch barrier tasks (orderingOnly in the model) re-arm the
// FLUXDIV_SHADOW_CHECK write detector between successive RHS writes into
// the same stage level.
//
// A periodic level of one-tile boxes without boundary fills (box16's 512
// boxes of 16^3) lowers no exchange at all. Each (y, z) row of its boxes
// is cut into runs of consecutive x-neighbours, each at most 64 cells wide
// (kGatherRunCells, measured against 128). One RHS task per run and stage
// copies the valid cells of the run's boxes, and the face pieces of the
// exchange plan that their stencil reads from outside the run, into the
// thread's ghosted buffer (Workspace Slot::Halo). It sweeps the whole run
// in rows of up to 64 cells and splits each finished row into per-box
// segments for the dissipation and the combines. The x faces between a
// run's boxes are valid cells of that buffer, so they cost no copy. The
// stage levels get no ghost cells, and the task's dependences come from
// its reads of the valid cells it copies. The access log and the model
// stay per box: each box's gathered pieces are the task's own ghost
// writes, made before that box's footprint reads (GraphTask::gathers), so
// G3 still proves every gathered halo cell filled.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "analysis/graphcheck.hpp"
#include "core/stepprogram.hpp"
#include "core/taskpool.hpp"
#include "core/variant.hpp"
#include "grid/bc.hpp"
#include "grid/leveldata.hpp"
#include "grid/real.hpp"

namespace fluxdiv::core {

class FluxDivRunner; // verification gates (core/runner.hpp)

// StepOpKind / StepOp / StepProgram / logicalTiles live in
// core/stepprogram.hpp (compiled into fluxdiv_variant) so the analysis
// library can verify step programs without linking the executors.

/// Physics of the RhsEval ops (mirrors solvers::FluxDivRhs).
struct StepRhsSpec {
  grid::Real invDx = 1.0;
  grid::Real dissipation = 0.0;
  const grid::BoundaryFiller* boundary = nullptr;
};

struct StepExecOptions {
  LevelPolicy policy = LevelPolicy::BoxParallel;
  bool pin = false;       ///< TaskPool worker pinning (owned pool only)
  ReplayMode replay{};    ///< adversarial serial replay (tests)
  /// Service mode (docs/serving.md): execute on this externally-owned
  /// pool instead of constructing a private one, submitting graphs to
  /// task domain `domain`. The executor then adopts the pool's thread
  /// count and spawns no threads of its own, so many concurrent solver
  /// instances interleave in one work-stealing pool. The pool must
  /// outlive the executor.
  TaskPool* sharedPool = nullptr;
  int domain = 0;         ///< task domain for sharedPool submissions
};

/// Statistics of the most recent capture, for benches and the advisor.
/// `cacheHits` and `rebinds` accumulate over the executor's lifetime
/// (they survive rebuilds): a hit is any run that reused the cached
/// graph, a rebind is the subset where the solution LevelData was a
/// *different* allocation with an identical layout signature — the
/// layout-keyed reuse path (docs/serving.md "Graph cache").
struct StepGraphStats {
  StepFuse fuse = StepFuse::Fused;   ///< always Fused: the graph's mode
  std::size_t graphCount = 0;        ///< dispatches per run: always 1
  std::size_t taskCount = 0;         ///< tasks in the graph
  std::size_t edgeCount = 0;         ///< dependency edges in the graph
  int exchangeDepth = 0;             ///< ghost layers the exchanges fill
  std::size_t exchangeOps = 0;       ///< ghost copy-op tasks per run
  int stageGhosts = 0;               ///< most ghost layers of a stage level
  bool rebuilt = false;              ///< last run() rebuilt the graph
  std::uint64_t cacheHits = 0;       ///< runs that reused the cached graph
  std::uint64_t rebinds = 0;         ///< hits onto a reallocated LevelData
};

/// Captures a StepProgram over one LevelData and executes it on a
/// persistent work-stealing TaskPool (a private one, or a shared service
/// pool via StepExecOptions::sharedPool). The graph is keyed by *layout
/// signature* — domain box, periodicity, box size, ghost depth, component
/// count, program ops, and physics — not by LevelData pointer identity:
/// a re-allocated solution with an identical shape rebinds into the
/// cached graph through the capture's slot table instead of re-lowering
/// (stats().rebinds counts these). Stage storage is owned by the executor
/// and reused across runs; a stage slot gets ghost cells only where the
/// program needs them (slotGhosts) and the capture lowers exchanges (not
/// when one-tile boxes gather their halos), and a tile-local RHS output
/// gets no level at all (only a workspace row or a per-thread tile
/// buffer).
class StepGraphExecutor {
public:
  StepGraphExecutor(VariantConfig cfg, int nThreads,
                    StepExecOptions opts = {});
  ~StepGraphExecutor();

  StepGraphExecutor(const StepGraphExecutor&) = delete;
  StepGraphExecutor& operator=(const StepGraphExecutor&) = delete;

  /// Execute the program: u advances by prog.nSteps time steps. Throws
  /// std::logic_error when a verification gate fails (Debug / opt-in).
  void run(const StepProgram& prog, grid::LevelData& u,
           const StepRhsSpec& rhs);

  /// Capture without executing: the analysis model of the graph run()
  /// would dispatch. For the graphcheck and kernelcheck CLIs, the
  /// advisor, and tests.
  [[nodiscard]] analysis::TaskGraphModel
  lowerModel(const StepProgram& prog, grid::LevelData& u,
             const StepRhsSpec& rhs);

  [[nodiscard]] const StepExecOptions& options() const { return opts_; }
  [[nodiscard]] int nThreads() const { return nThreads_; }
  [[nodiscard]] const StepGraphStats& stats() const { return stats_; }

  /// Submission API for an externally driven pool (docs/serving.md):
  /// capture (or rebind) without executing and return the number of
  /// graphs one run() dispatches — always 1, the single phase 0. The
  /// caller then runs beginPhase(0) -> submit the returned graph to the
  /// shared pool -> after its ticket completes, endPhase(0). One
  /// executor's graph runs one submission at a time; different executors
  /// interleave freely.
  std::size_t preparePhases(const StepProgram& prog, grid::LevelData& u,
                            const StepRhsSpec& rhs);

  /// Arm the graph (re-arms shadow-check epochs on the stage storage it
  /// overwrites) and return it for submission. `p` must be 0; any other
  /// index, or no prior preparePhases(), throws std::logic_error.
  [[nodiscard]] TaskGraph& beginPhase(std::size_t p);

  /// Complete the graph after its submission finished: runs the
  /// shadow-violation check (throws std::logic_error on a detected race).
  /// `p` must be 0, as for beginPhase.
  void endPhase(std::size_t p);

private:
  struct Capture; // cached lowered graph + bookkeeping (stepgraph.cpp)

  /// (Re)capture when the (program, layout signature, physics) key
  /// changed; rebind when only the solution's identity changed; returns
  /// the up-to-date capture.
  Capture& ensureCapture(const StepProgram& prog, grid::LevelData& u,
                         const StepRhsSpec& rhs);

  /// Run `graph` to completion on the pool: submitted to opts_.domain
  /// and waited for on a shared pool, run() on an owned one.
  void dispatch(TaskGraph& graph);

  /// The capture, after checking the phase index `p` is 0 (throws
  /// std::logic_error naming `caller` otherwise, or with no capture).
  Capture& capturedPhase(std::size_t p, const char* caller);

  VariantConfig cfg_;
  int nThreads_;
  StepExecOptions opts_;
  StepGraphStats stats_;
  std::unique_ptr<TaskPool> ownedPool_; ///< null when sharedPool is set
  TaskPool* pool_ = nullptr;            ///< owned or shared
  std::unique_ptr<FluxDivRunner> runner_; ///< schedule/kernel/advice gates
  std::unique_ptr<Capture> capture_;
};

} // namespace fluxdiv::core
