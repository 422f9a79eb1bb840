#pragma once
// analysis/stepcheck: the whole-step program checker
// (docs/static-analysis.md, "stepcheck"). The top layer of the proof
// pyramid: task graphs (graphcheck) -> comm plans (commcheck) -> kernel
// contracts (kernelcheck) -> whole-step programs (this file). Halo width is fixed by the stencil: every Exchange fills
// kNumGhost layers and every compute op writes a slot's whole valid
// region. So per slot the checker tracks only the op that wrote its valid
// region and the ops that wrote its ghost frame since its last Exchange:
//
//   S2 liveness      no op reads a slot's valid region before some op
//                    wrote it, and no RHS reads its source's ghost frame
//                    before an Exchange filled it (ReadBeforeWrite); ops
//                    whose written values no later op reads raise
//                    DeadStore / DeadExchange advisories. A BoundaryFill
//                    writes only the slabs beyond walls: it joins the
//                    Exchange as a writer of the ghost frame and fills no
//                    frame on its own.
//   S4 rebind        stepSignature() digests (program, fuse, layout,
//                    physics) into the key the executor-cache rebind
//                    paths must match before reusing a captured graph
//                    (StepGraphExecutor and serve::SolveService check it).
//
// Whether a program computes its scheme is not a question for this file:
// the fused graph is bit-identical to the eager interpretation of the
// same program, and that interpretation is compared bitwise with each
// scheme written out by hand (tests/solvers/test_stepgraph.cpp).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stepprogram.hpp"
#include "grid/box.hpp"
#include "grid/real.hpp"

namespace fluxdiv::analysis {

struct CostNote; // costmodel.hpp

/// One ReadBeforeWrite: op `op` reads slot `slot` (its valid region, or
/// an RHS source's ghost frame) before any op wrote it.
struct StepDiagnostic {
  int op = -1;
  int slot = 0;
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

struct StepCheckReport {
  std::vector<StepDiagnostic> diagnostics;
  std::vector<StepAdvisory> advisories;

  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
};

/// Check S2 for `prog`. The check stops at the first op that reads a
/// never-written slot; advisories are reported only for a clean program.
StepCheckReport checkStepProgram(const core::StepProgram& prog);

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
