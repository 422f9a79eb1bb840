#pragma once
// FluxDivRunner: the public entry point that executes one flux-divergence
// evaluation (one "time step" of the exemplar's stencil pipeline) over a
// LevelData under a chosen scheduling variant and thread count. This is
// the object the examples, tests, and every figure bench drive.
//
// Every granularity runs as core::TaskGraphs on a TaskPool of nThreads
// workers, created on the first run()/runBox(): P>=Box as one task per
// box, P=Box*Tile as one task per (box, tile), and P<Box box by box, each
// box's schedule as tasks with a dependence join wherever the schedule
// has a team barrier (the phases analysis::lowerVariant models for the
// cost model). Graphs are built once per box shape (per layout for P>=Box
// and P=Box*Tile).
//
// In Debug builds (or with -DFLUXDIV_VERIFY=ON) the runner additionally
// probes each variant's kernels differentially once per config to prove
// the declared stencil footprints sound — see src/analysis and
// docs/static-analysis.md. Release builds compile the gate out entirely.
// Whether the schedules themselves are legal is checked by running them:
// the equivalence tests against the reference kernel, the adversarial
// replay of every graph (FluxDivRunner.ReplayedGraphsMatchOneThreadRun)
// and, with FLUXDIV_SHADOW_CHECK, the shadow race detector.

#include <memory>

#include "core/variant.hpp"
#include "core/workspace.hpp"
#include "grid/leveldata.hpp"

namespace fluxdiv::core {

class FluxDivRunner;
class TaskGraph;
struct ReplayMode;

namespace detail {
/// FluxDivRunner::run with every graph dispatch replayed serially in the
/// adversarial order `mode` (TaskPool::runReplay) instead of on the
/// pool's workers. White-box entry point for the replay tests.
void runReplayed(FluxDivRunner& runner, const grid::LevelData& phi0,
                 grid::LevelData& phi1, const ReplayMode& mode,
                 grid::Real scale = 1.0);
} // namespace detail

/// Executes the exemplar under one VariantConfig.
///
/// Usage:
///   FluxDivRunner runner(makeOverlapped(IntraTileSchedule::ShiftFuse, 8,
///                                       ParallelGranularity::WithinBox),
///                        nThreads);
///   phi0.exchange();                    // ghosts must be current
///   runner.run(phi0, phi1);             // phi1 += div(F(phi0))
class FluxDivRunner {
public:
  FluxDivRunner(VariantConfig cfg, int nThreads);
  ~FluxDivRunner();
  // The built graphs hold this runner's address.
  FluxDivRunner(const FluxDivRunner&) = delete;
  FluxDivRunner& operator=(const FluxDivRunner&) = delete;

  [[nodiscard]] const VariantConfig& config() const { return cfg_; }
  [[nodiscard]] int nThreads() const { return nThreads_; }

  /// Accumulate scale * (flux differences of phi0) into phi1 over every
  /// valid cell. phi0's ghost cells must already be exchanged; phi1's
  /// ghosts (if any) are not touched. Levels must share a layout and have
  /// kNumComp components. Throws std::invalid_argument when the config
  /// is not valid for the layout's box size. Task-parallel execution of
  /// whole time steps is core::StepGraphExecutor's job
  /// (core/stepgraph.hpp).
  void run(const grid::LevelData& phi0, grid::LevelData& phi1,
           grid::Real scale = 1.0);

  /// Kernel footprint contract gate (no-op unless FLUXDIV_VERIFY is
  /// defined): differentially probe this variant's whole-pipeline
  /// kernels over a small sampled box and prove the declared stencil
  /// footprints sound (analysis/kernelcheck), throwing std::logic_error
  /// on an undeclared access. Probed once per config name process-wide;
  /// a config that failed fails again on every later call. runBox/run
  /// call this when they first meet a box shape; the step-graph executor
  /// calls it up front so graph tasks need not.
  void prepare();

  /// Single-box entry point: phi0 must cover valid.grow(kNumGhost) with
  /// ghosts filled; phi1 must cover `valid`. Uses the configured parallel
  /// granularity (WithinBox parallelizes inside this one box, and so does
  /// HybridBoxTile).
  void runBox(const grid::FArrayBox& phi0, grid::FArrayBox& phi1,
              const grid::Box& valid, grid::Real scale = 1.0);

  /// Scratch-storage accounting for the Table I experiment: the largest
  /// per-worker peak and the sum of per-worker peaks since construction.
  [[nodiscard]] std::size_t maxPeakWorkspaceBytes() const {
    return ws_.maxPeakBytes();
  }
  [[nodiscard]] std::size_t totalPeakWorkspaceBytes() const {
    return ws_.totalPeakBytes();
  }

private:
  friend void detail::runReplayed(FluxDivRunner&, const grid::LevelData&,
                                  grid::LevelData&, const ReplayMode&,
                                  grid::Real);
  struct Graphs; ///< the built graphs, their pool and the call they act on

  /// The graph over `nBoxes` boxes shaped like `valid` under the
  /// configured granularity (P<Box: one box, nBoxes == 1), built on first
  /// use. Validates the config for the shape and runs the gates first.
  TaskGraph& graphFor(const grid::Box& valid, std::size_t nBoxes);
  /// Run one graph on the pool (created here on first use).
  void dispatch(TaskGraph& graph);

  VariantConfig cfg_;
  int nThreads_;
  WorkspacePool ws_; ///< one per pool worker
  std::unique_ptr<Graphs> graphs_;
  bool kernelsVerified_ = false; ///< this runner passed the kernel gate
};

} // namespace fluxdiv::core
