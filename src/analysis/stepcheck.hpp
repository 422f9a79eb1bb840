#pragma once
// analysis/stepcheck: the whole-step program checker
// (docs/static-analysis.md, "stepcheck"). The top layer of the proof
// pyramid: schedules (verifier) -> task graphs (graphcheck) -> comm plans
// (commcheck) -> kernel contracts (kernelcheck) -> whole-step semantics
// (this file). It interprets a core::StepProgram symbolically — per slot,
// per *ghost/interior layer* — building hash-consed provenance
// expressions for every value the op chain produces. Halo width is fixed
// by the stencil: every exchange fills kNumGhost layers and every compute
// op runs on the valid region, so what can vary is the program itself:
//
//   S1 equivalence   against a reference program (StepCheckOptions::
//                    reference), every valid-region layer of every slot
//                    carries the same provenance expression after every
//                    op. Failure carries a minimal witness (first op
//                    whose written interior diverges, deepest diverging
//                    layer, a concrete witness cell).
//   S2 liveness      no op reads a slot layer that was never written
//                    (ReadBeforeWrite); ops whose written values are
//                    never consumed raise DeadStore / DeadExchange
//                    advisories.
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
// window [L-g, L+g]. The program's run and the reference's run intern
// expressions into one table, so S1 is a per-layer id comparison.

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
  ValueMismatch,   ///< S1: interior provenance diverges from the reference
  ReadBeforeWrite, ///< S2: op reads a never-written stage-slot layer
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
};

struct StepAdvisory {
  StepNoteKind kind = StepNoteKind::DeadStore;
  int op = -1;
  int slot = 0;

  [[nodiscard]] std::string message() const;
};

struct StepCheckOptions {
  int boxSize = 16; ///< cubic box side for witness cells
  /// S1 reference: the program `prog` must match op by op (mutation
  /// testing: a mutant must diverge from the *unmutated* program). When
  /// the two differ in length, they run in lockstep over their common
  /// prefix, the longer one's extra ops run alone, and the rest stays
  /// aligned on the shifted index. Null: S2 only.
  const core::StepProgram* reference = nullptr;
};

struct StepCheckReport {
  std::vector<StepDiagnostic> diagnostics;
  std::vector<StepAdvisory> advisories;
  std::size_t exprCount = 0; ///< hash-consed provenance DAG size

  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
};

/// Check S2 for `prog`, plus S1 against `opts.reference` when it is set.
StepCheckReport checkStepProgram(const core::StepProgram& prog,
                                 const StepCheckOptions& opts = {});

/// Convert a report's advisories to DeadStore cost-model notes for
/// fluxdiv_advisor --scheme; `prog` is the checked program, for op labels.
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
