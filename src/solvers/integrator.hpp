#pragma once
// Explicit time integrators over LevelData (method of lines). Chombo-class
// frameworks advance time-dependent PDEs with exactly these schemes; the
// integrator is schedule-agnostic — any FluxDivRhs (hence any scheduling
// variant) plugs in.
//
// Every scheme is stated once, as a symbolic StepProgram
// (buildStepProgram). Two execution paths per step (core::StepFuse):
//   * Eager: the program interpreted serially, op by op — each stage
//     synchronously exchanges, evaluates the RHS, and combines stages with
//     level-wide sweeps. The bit-identity reference for everything below.
//   * Fused / CommAvoid: the program is lowered by
//     core::StepGraphExecutor into one dependency-tracked task graph —
//     the stage combines become per-box/per-tile tasks and cross-stage
//     tasks overlap (Fused), or per-stage exchanges are replaced by one
//     deepened exchange plus halo recomputation (CommAvoid). Selected by
//     setStepFuse() (default: fused). All modes produce bit-identical
//     solutions.

#include <memory>
#include <vector>

#include "core/stepgraph.hpp"
#include "grid/leveldata.hpp"
#include "solvers/rhs.hpp"

namespace fluxdiv::solvers {

/// Explicit Runge-Kutta scheme selector.
enum class Scheme {
  ForwardEuler, ///< 1st order: u += dt k1
  Midpoint,     ///< 2nd order (RK2 midpoint)
  SSPRK3,       ///< 3rd order strong-stability-preserving (Shu-Osher)
  RK4,          ///< classic 4th order
};

/// Formal order of accuracy of a scheme.
constexpr int schemeOrder(Scheme s) {
  switch (s) {
  case Scheme::ForwardEuler:
    return 1;
  case Scheme::Midpoint:
    return 2;
  case Scheme::SSPRK3:
    return 3;
  case Scheme::RK4:
    return 4;
  }
  return 0;
}

/// RHS evaluations (hence ghost exchanges on the eager path) per step.
constexpr int schemeRhsEvals(Scheme s) {
  switch (s) {
  case Scheme::ForwardEuler:
    return 1;
  case Scheme::Midpoint:
    return 2;
  case Scheme::SSPRK3:
    return 3;
  case Scheme::RK4:
    return 4;
  }
  return 0;
}

/// Display / CLI name: "euler", "midpoint", "ssprk3", "rk4".
[[nodiscard]] const char* schemeName(Scheme s);

/// Parse a scheme name (the --scheme values). Returns false and leaves
/// `out` untouched on an unknown name.
bool parseScheme(const std::string& text, Scheme& out);

/// All four schemes, in order of formal accuracy.
inline constexpr Scheme kSchemes[] = {
    Scheme::ForwardEuler,
    Scheme::Midpoint,
    Scheme::SSPRK3,
    Scheme::RK4,
};

/// Record `nSteps` consecutive time steps of `scheme` as a symbolic
/// core::StepProgram: per stage an Exchange (+ BoundaryFill when
/// `withBoundary`) and RhsEval, plus the copy/axpy/scale stage combines —
/// the single source of every scheme's RK coefficients. The eager path
/// interprets it in order, so any lowering that preserves per-(slot,
/// region) program order is bit-identical to eager. dt is baked into the
/// combine coefficients.
core::StepProgram buildStepProgram(Scheme scheme, grid::Real dt,
                                   int nSteps = 1,
                                   bool withBoundary = false);

/// Copy the valid region of `src` into `dst` (same layout).
void copyValid(const grid::LevelData& src, grid::LevelData& dst);

/// dst += scale * src over valid regions (same layout).
void addScaled(grid::LevelData& dst, const grid::LevelData& src,
               grid::Real scale);

/// dst *= scale over valid regions.
void scaleValid(grid::LevelData& dst, grid::Real scale);

/// Explicit RK integrator.
class TimeIntegrator {
public:
  /// Eager stage storage is allocated on `layout`, with the exemplar's
  /// component and ghost counts, by the first advanceEager(); the
  /// step-graph modes use their executor's own stage levels.
  TimeIntegrator(Scheme scheme, const grid::DisjointBoxLayout& layout);
  ~TimeIntegrator();

  TimeIntegrator(const TimeIntegrator&) = delete;
  TimeIntegrator& operator=(const TimeIntegrator&) = delete;

  [[nodiscard]] Scheme scheme() const { return scheme_; }

  /// Advance u by one step of size dt: u <- u + dt * combination of
  /// rhs evaluations per the scheme. Dispatches on the fuse mode (see the
  /// header comment).
  void advance(grid::LevelData& u, grid::Real dt, FluxDivRhs& rhs);

  /// Advance u by `nSteps` steps of size dt. Under Fused/CommAvoid the
  /// whole sequence is captured as ONE task graph (cross-time-step
  /// fusion); under Eager equivalent to calling advance() nSteps times.
  void advanceSteps(grid::LevelData& u, grid::Real dt, FluxDivRhs& rhs,
                    int nSteps);

  /// The eager reference path, always available regardless of fuse mode:
  /// the step program interpreted serially, op by op.
  void advanceEager(grid::LevelData& u, grid::Real dt, FluxDivRhs& rhs);

  /// Select the fuse mode (default: fused).
  void setStepFuse(core::StepFuse fuse) { fuse_ = fuse; }

  /// Select the step-graph executor's task granularity (default:
  /// box-parallel).
  void setLevelPolicy(core::LevelPolicy policy) { policy_ = policy; }

  /// Adversarial serial replay of the captured graph (tests; see
  /// core::ReplayMode). Only affects the non-eager paths.
  void setReplay(core::ReplayMode replay) { replay_ = replay; }

  /// Capture statistics of the step-graph executor: null until a
  /// non-eager advance() ran.
  [[nodiscard]] const core::StepGraphStats* stepStats() const;

  /// The executor a non-eager advance would use, creating it on demand
  /// (tests poke lowerModel()/effectiveFuse() through this). Null only
  /// for StepFuse::Eager.
  core::StepGraphExecutor* stepExecutor(const FluxDivRhs& rhs);

private:
  Scheme scheme_;
  grid::DisjointBoxLayout layout_;      ///< where stages_ is allocated
  std::vector<grid::LevelData> stages_; ///< eager k_i and staging state
  core::StepFuse fuse_ = core::StepFuse::Fused;
  core::LevelPolicy policy_ = core::LevelPolicy::BoxParallel;
  core::ReplayMode replay_{};
  core::VariantConfig execCfg_; ///< config the executor was built for
  std::unique_ptr<core::StepGraphExecutor> exec_;
};

} // namespace fluxdiv::solvers
