#pragma once
// FluxDivRunner: the public entry point that executes one flux-divergence
// evaluation (one "time step" of the exemplar's stencil pipeline) over a
// LevelData under a chosen scheduling variant and thread count. This is
// the object the examples, tests, and every figure bench drive.
//
// In Debug builds (or with -DFLUXDIV_VERIFY=ON) the runner additionally
// proves the configured schedule legal before the first execution over
// each box shape, and probes each variant's kernels differentially once
// per config to prove the declared stencil footprints sound — see
// src/analysis and docs/static-analysis.md. Release builds compile both
// gates out entirely.

#include "analysis/verifygate.hpp"
#include "core/variant.hpp"
#include "core/workspace.hpp"
#include "grid/leveldata.hpp"

namespace fluxdiv::core {

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

  [[nodiscard]] const VariantConfig& config() const { return cfg_; }
  [[nodiscard]] int nThreads() const { return nThreads_; }

  /// Accumulate scale * (flux differences of phi0) into phi1 over every
  /// valid cell. phi0's ghost cells must already be exchanged; phi1's
  /// ghosts (if any) are not touched. Levels must share a layout and have
  /// kNumComp components. Task-parallel execution of whole time steps is
  /// core::StepGraphExecutor's job (core/stepgraph.hpp).
  void run(const grid::LevelData& phi0, grid::LevelData& phi1,
           grid::Real scale = 1.0);

  /// Run the kernel and legality gates for boxes of this shape (cached,
  /// compiled out unless FLUXDIV_VERIFY — see above). runBox/run call
  /// this themselves; the step-graph executor calls it up front so graph
  /// tasks need not.
  void prepare(const grid::Box& valid) {
    verifyKernels();
    verifySchedule(valid);
  }

  /// Single-box entry point: phi0 must cover valid.grow(kNumGhost) with
  /// ghosts filled; phi1 must cover `valid`. Uses the configured parallel
  /// granularity (WithinBox parallelizes inside this one box).
  void runBox(const grid::FArrayBox& phi0, grid::FArrayBox& phi1,
              const grid::Box& valid, grid::Real scale = 1.0);

  /// Scratch-storage accounting for the Table I experiment: the largest
  /// per-thread peak and the sum of per-thread peaks since construction.
  [[nodiscard]] std::size_t maxPeakWorkspaceBytes() const {
    return pool_.maxPeakBytes();
  }
  [[nodiscard]] std::size_t totalPeakWorkspaceBytes() const {
    return pool_.totalPeakBytes();
  }

private:
  void runBoxSerial(const grid::FArrayBox& phi0, grid::FArrayBox& phi1,
                    const grid::Box& valid, Workspace& ws,
                    grid::Real scale);

  /// Schedule-legality gate (no-op unless FLUXDIV_VERIFY is
  /// defined): lowers the variant over this box shape and runs the
  /// ScheduleVerifier, throwing std::logic_error with the diagnostic on
  /// an illegal schedule. Legality is translation-invariant, so results
  /// are cached per box extent.
  void verifySchedule(const grid::Box& valid);

  /// Kernel footprint contract gate (no-op unless FLUXDIV_VERIFY is
  /// defined): differentially probe this variant's whole-pipeline
  /// kernels over a small sampled box and prove the declared stencil
  /// footprints sound (analysis/kernelcheck), throwing std::logic_error
  /// on an undeclared access. Probed once per config name process-wide.
  void verifyKernels();

  VariantConfig cfg_;
  int nThreads_;
  WorkspacePool pool_;
  analysis::VerifyGate scheduleGate_; ///< box extents proven legal
  bool kernelsVerified_ = false; ///< this runner passed the kernel gate
};

} // namespace fluxdiv::core
