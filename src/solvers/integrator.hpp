#pragma once
// Explicit time integrators over LevelData (method of lines). Chombo-class
// frameworks advance time-dependent PDEs with exactly these schemes; the
// integrator is schedule-agnostic — any FluxDivRhs (hence any scheduling
// variant) plugs in.
//
// Every scheme is stated once, as a symbolic StepProgram
// (buildStepProgram), and run two ways:
//   * advance()/advanceSteps(): the program lowered by
//     core::StepGraphExecutor into one dependency-tracked task graph on
//     the executor's TaskPool — each RHS tile task also runs the stage
//     combines that follow it, and cross-stage tasks overlap.
//   * advanceEager(): the reference. The program interpreted op by op,
//     each op run to completion over the whole level before the next:
//     exchange, boundary fill and combines are serial loops over boxes,
//     the RHS runs through the FluxDivRunner.
// Both produce bit-identical solutions.

#include <memory>

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

/// Copy the valid region of `src` into `dst` (same layout), box by box.
void copyValid(const grid::LevelData& src, grid::LevelData& dst);

/// dst += scale * src over valid regions (same layout), box by box.
void addScaled(grid::LevelData& dst, const grid::LevelData& src,
               grid::Real scale);

/// dst *= scale over valid regions, box by box.
void scaleValid(grid::LevelData& dst, grid::Real scale);

/// Explicit RK integrator.
class TimeIntegrator {
public:
  /// advanceEager() allocates its stage levels on `layout` for the length
  /// of one call; advance() uses its executor's own stage levels.
  TimeIntegrator(Scheme scheme, const grid::DisjointBoxLayout& layout);
  ~TimeIntegrator();

  TimeIntegrator(const TimeIntegrator&) = delete;
  TimeIntegrator& operator=(const TimeIntegrator&) = delete;

  [[nodiscard]] Scheme scheme() const { return scheme_; }

  /// Advance u by one step of size dt: u <- u + dt * combination of
  /// rhs evaluations per the scheme, run as a step graph.
  void advance(grid::LevelData& u, grid::Real dt, FluxDivRhs& rhs);

  /// Advance u by `nSteps` steps of size dt, captured as ONE task graph
  /// (cross-time-step fusion).
  void advanceSteps(grid::LevelData& u, grid::Real dt, FluxDivRhs& rhs,
                    int nSteps);

  /// The reference step: the step program interpreted serially, op by op.
  /// Its stage levels are allocated here and freed on return.
  void advanceEager(grid::LevelData& u, grid::Real dt, FluxDivRhs& rhs);

  /// Select the step-graph executor's task granularity (default:
  /// box-parallel).
  void setLevelPolicy(core::LevelPolicy policy) { policy_ = policy; }

  /// Adversarial serial replay of the captured graph (tests; see
  /// core::ReplayMode). Does not affect advanceEager().
  void setReplay(core::ReplayMode replay) { replay_ = replay; }

  /// Capture statistics of the step-graph executor: null until an
  /// advance() ran.
  [[nodiscard]] const core::StepGraphStats* stepStats() const;

  /// The executor advance() uses for `rhs`, created on demand (tests poke
  /// lowerModel() through this). Never null.
  core::StepGraphExecutor* stepExecutor(const FluxDivRhs& rhs);

private:
  Scheme scheme_;
  grid::DisjointBoxLayout layout_; ///< where advanceEager() allocates stages
  core::LevelPolicy policy_ = core::LevelPolicy::BoxParallel;
  core::ReplayMode replay_{};
  core::VariantConfig execCfg_; ///< config the executor was built for
  std::unique_ptr<core::StepGraphExecutor> exec_;
};

} // namespace fluxdiv::solvers
