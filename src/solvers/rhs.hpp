#pragma once
// Right-hand-side evaluator for method-of-lines time integration: wraps a
// FluxDivRunner (any scheduling variant), the ghost exchange, and optional
// physical boundary conditions into dudt = -(1/dx) div F(u) — the
// conservation-law RHS of paper Eq. 1/4.

#include "core/runner.hpp"
#include "grid/bc.hpp"
#include "kernels/laplacian.hpp"

namespace fluxdiv::solvers {

/// Evaluates the semi-discrete RHS of the exemplar conservation law, with
/// an optional artificial-dissipation term (the stabilization mechanism
/// role the paper cites for ghost layers):
///   dudt = -(1/dx) div F(u) + nu/dx^2 Lap(u).
class FluxDivRhs {
public:
  /// `invDx` is 1/dx (the flux difference divided by the cell width);
  /// `boundary` handles non-periodic sides (nullptr for fully periodic
  /// domains); `dissipation` is nu/dx^2 (0 disables the Laplacian term).
  FluxDivRhs(core::VariantConfig cfg, int nThreads, grid::Real invDx = 1.0,
             const grid::BoundaryFiller* boundary = nullptr,
             grid::Real dissipation = 0.0)
      : runner_(cfg, nThreads), invDx_(invDx), dissipation_(dissipation),
        boundary_(boundary) {}

  /// Evaluate into dudt. Exchanges u's ghosts (and applies boundary
  /// conditions) first; dudt's previous contents are discarded.
  void operator()(grid::LevelData& u, grid::LevelData& dudt) {
    u.exchange();
    if (boundary_ != nullptr) {
      boundary_->fill(u);
    }
    evaluate(u, dudt);
  }

  /// operator() without the ghost update: u's ghosts (and boundary
  /// ghosts) must already be current. The eager integrator's RhsEval op.
  void evaluate(const grid::LevelData& u, grid::LevelData& dudt) {
    for (std::size_t b = 0; b < dudt.size(); ++b) {
      dudt[b].setVal(0.0);
    }
    runner_.run(u, dudt, -invDx_);
    if (dissipation_ != 0.0) {
      kernels::addLaplacian(u, dudt, dissipation_);
    }
  }

  [[nodiscard]] const core::VariantConfig& config() const {
    return runner_.config();
  }
  [[nodiscard]] int nThreads() const { return runner_.nThreads(); }
  [[nodiscard]] grid::Real invDx() const { return invDx_; }
  [[nodiscard]] grid::Real dissipation() const { return dissipation_; }
  [[nodiscard]] const grid::BoundaryFiller* boundary() const {
    return boundary_;
  }

private:
  core::FluxDivRunner runner_;
  grid::Real invDx_;
  grid::Real dissipation_;
  const grid::BoundaryFiller* boundary_;
};

} // namespace fluxdiv::solvers
