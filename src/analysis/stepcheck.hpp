#pragma once
// analysis/stepcheck: the whole-step semantic-equivalence prover
// (docs/static-analysis.md, "stepcheck"). The top layer of the proof
// pyramid: schedules (verifier) -> task graphs (graphcheck) -> comm plans
// (commcheck) -> kernel contracts (kernelcheck) -> whole-step semantics
// (this file). It interprets a core::StepProgram symbolically — per slot,
// per *ghost/interior layer* — building hash-consed provenance
// expressions for every value the op chain produces, and proves that the
// fuse transforms of core::StepGraphExecutor cannot change the answer:
//
//   S1 equivalence   under the fuse mode's StepHaloPlan, every
//                    valid-region layer of every slot carries the same
//                    provenance expression as under eager semantics —
//                    including that CommAvoid's halo *recomputation*
//                    reproduces exactly what the dropped exchanges would
//                    have delivered. Failure carries a minimal witness
//                    (first op whose written interior diverges, deepest
//                    diverging layer, a concrete witness cell).
//   S2 liveness      no op reads a slot layer that was never written
//                    (ReadBeforeWrite); ops whose written values are
//                    never consumed raise DeadStore / DeadExchange
//                    advisories.
//   S3 tightness     every planStepHalos width is minimal: width-1
//                    provably breaks S1. A width that still passes when
//                    shrunk raises an OverDeepHalo advisory priced in
//                    recomputed cells (surfaced by fluxdiv_advisor).
//   S4 rebind        stepSignature() digests (program, fuse, layout,
//                    physics) into the key the executor-cache rebind
//                    paths must match before reusing a captured graph
//                    (StepGraphExecutor and serve::SolveService check it).
//
// The abstraction: within one box, a value's provenance depends only on
// its *layer* — L-inf ghost depth (layer >= 1) or interior distance to
// the valid-region boundary (layer <= 0) — because programs start from a
// layer-uniform field and every op (stencil, exchange mirror, pointwise
// combine) maps layer-uniform inputs to layer-uniform outputs. Each slot
// is an ordered list of layer bands sharing one expression; an exchange
// fills ghost layer L with the interior expression at layer 1-L (what the
// neighbor's valid cells hold); an RHS evaluation at layer L reads the
// window [L-g, L+g]. Both the fuse-mode run and the eager reference run
// intern expressions into one table, so S1 is a per-layer id comparison.
//
// Note CommAvoid's planStepHalos deliberately drops BoundaryFill ops
// (width -1). For programs that contain them the checker duly reports the
// S1 break — proving *why* StepGraphExecutor::effectiveFuse falls back to
// Fused on boundary conditions rather than asserting it.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stepprogram.hpp"
#include "grid/box.hpp"
#include "grid/real.hpp"

namespace fluxdiv::analysis {

struct CostNote; // costmodel.hpp

enum class StepDiagKind {
  ValueMismatch,   ///< S1: interior provenance diverges from eager
  ReadBeforeWrite, ///< S2: op reads a never-written stage-slot layer
  StorageExceeded, ///< plan inconsistency: exchange deeper than its depth
};

/// One stepcheck failure with its minimal witness: `op` is the first
/// program op whose written interior diverges (or performs the bad read),
/// `layer` the deepest diverging layer (<= 0: interior distance to the
/// valid boundary), `cell` a concrete witness cell of box 0.
struct StepDiagnostic {
  StepDiagKind kind = StepDiagKind::ValueMismatch;
  int op = -1;
  int slot = 0;
  int layer = 0;
  grid::IntVect cell{0, 0, 0};
  std::string detail;

  [[nodiscard]] std::string message() const;
};

enum class StepNoteKind {
  DeadStore,    ///< op's written values are never read (S2)
  DeadExchange, ///< exchange fills ghosts nothing ever reads (S2)
  OverDeepHalo, ///< plan width not minimal; shrinking keeps S1 (S3)
};

struct StepAdvisory {
  StepNoteKind kind = StepNoteKind::DeadStore;
  int op = -1;
  int slot = 0;
  int width = 0;    ///< planned width (OverDeepHalo)
  int minWidth = 0; ///< proven-minimal width: minWidth-1 breaks S1
  /// Extra cells recomputed (or ghost cells filled) per run because of
  /// the over-deep width, over opts.nBoxes boxes of side opts.boxSize.
  long long recomputeCells = 0;

  [[nodiscard]] std::string message() const;
};

struct StepCheckOptions {
  int boxSize = 16; ///< cubic box side for witness cells and pricing
  int nBoxes = 1;   ///< boxes, for OverDeepHalo pricing
  bool checkTightness = true; ///< run S3 (quadratic in program length)
  /// Compare against this program's eager run instead of `prog`'s own
  /// (mutation testing: the skew/reorder mutants perturb the program and
  /// must diverge from the *unperturbed* reference). Must have the same
  /// op count as `prog`; null means self-reference.
  const core::StepProgram* reference = nullptr;
};

struct StepCheckReport {
  core::StepFuse fuse = core::StepFuse::Fused;
  std::vector<StepDiagnostic> diagnostics;
  std::vector<StepAdvisory> advisories;
  std::size_t exprCount = 0; ///< hash-consed provenance DAG size
  int planDepth = 0;         ///< deepest kept exchange of the plan

  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
};

/// Prove S1/S2/S3 for `prog` under `plan` (as fuse mode `fuse` would run
/// it) against the eager reference semantics. The two-argument overload
/// plans the halos itself with core::planStepHalos.
StepCheckReport checkStepProgram(const core::StepProgram& prog,
                                 core::StepFuse fuse,
                                 const core::StepHaloPlan& plan,
                                 const StepCheckOptions& opts = {});
StepCheckReport checkStepProgram(const core::StepProgram& prog,
                                 core::StepFuse fuse,
                                 const StepCheckOptions& opts = {});

/// Convert a report's advisories to cost-model notes (DeadStore /
/// OverDeepHalo CostNoteKind) for fluxdiv_advisor --scheme; `prog` is
/// the checked program, for op labels.
std::vector<CostNote> stepCheckNotes(const StepCheckReport& report,
                                     const core::StepProgram& prog);

/// S4: the layout/physics half of the rebind signature — everything
/// StepGraphExecutor's capture key holds beyond the program itself.
struct StepShapeKey {
  grid::Box domainBox;
  std::array<bool, grid::SpaceDim> periodic{};
  grid::IntVect boxSize{0, 0, 0};
  int nGhost = 0;
  int nComp = 0;
  grid::Real invDx = 0.0;
  grid::Real dissipation = 0.0;
  bool hasBoundary = false;
};

/// FNV-1a digest of (program ops, fuse, shape key). The executor cache
/// stores it at capture time and re-derives it on every layout-keyed
/// rebind; a mismatch means the cache was about to reuse a graph for a
/// shape it was never proven for (std::logic_error at the gate).
std::uint64_t stepSignature(const core::StepProgram& prog,
                            core::StepFuse fuse, const StepShapeKey& key);
std::string stepSignatureHex(std::uint64_t signature);

} // namespace fluxdiv::analysis
