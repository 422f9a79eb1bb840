#pragma once
// Seeded miscompilations of the artifacts the checkers prove, each
// predicting the witness its checker must report, so the tests can prove
// every checker rejects each class of bug for the right reason — not
// merely accepts the legal artifacts.
//
// The GraphMutation half miscompiles lowered *task graphs*
// (analysis/graphcheck.hpp): seeded edge drops, edge reroutes, and
// ghost-write shrinks, each predicting the two-task witness
// checkTaskGraph must report.
//
// The CommMutation half miscompiles *exchange plans*
// (analysis/commcheck.hpp): seeded op drops, region shrinks, source
// skews, and send unmatchings, each predicting the labeled two-endpoint
// witness checkCommPlan must report.
//
// The KernelMutation half edits inferred *kernel footprints*
// (analysis/kernelcheck.hpp): widened reads, shifted stencils and
// forgotten declared offsets, each predicting the role and offset
// checkKernelFootprints must report.
//
// The StepMutation half miscompiles *step programs*
// (analysis/stepcheck.hpp): a dropped exchange and a reordered op pair,
// each making the program read a never-written slot part and predicting
// the op at which checkStepProgram must report it.

#include <cstdint>
#include <string>

#include "analysis/commcheck.hpp"
#include "analysis/graphcheck.hpp"
#include "analysis/kernelcheck.hpp"
#include "core/stepprogram.hpp"

namespace fluxdiv::analysis::mutate {

/// A seeded task-graph miscompilation plus the diagnostic it must provoke.
/// `expect == Ok` means the graph offered no candidate for this mutation
/// class (e.g. an edge-free box-parallel run() graph has nothing to drop);
/// callers skip those. Otherwise checkTaskGraph(model) must report a
/// diagnostic of kind `expect` whose witness pair is (taskA, taskB)
/// (normalized taskA < taskB for the race kinds; reader/op for
/// ReadUncovered).
struct GraphMutation {
  TaskGraphModel model;
  std::string what; ///< human description of the injected bug
  int taskA = -1;
  int taskB = -1;
  DiagnosticKind expect = DiagnosticKind::Ok;
};

/// Drop one dependency edge that directly orders a conflicting task pair
/// (and is not shadowed by an alternate path) — the classic forgotten
/// addDep. Seed selects among candidates. Expected: WriteOverlap or
/// ReadWriteRace naming the pair.
GraphMutation dropGraphEdge(const TaskGraphModel& m, std::uint64_t seed);

/// Reroute such an edge to an unrelated task — the classic off-by-one in
/// a dependency loop (edge count stays the same, ordering is still lost).
/// Expected: same diagnostic as dropGraphEdge.
GraphMutation rerouteGraphEdge(const TaskGraphModel& m,
                               std::uint64_t seed);

/// Shrink one ghost fill by its outermost layer (a halo fill that
/// under-copies): an exchange-op task's ghost write, or a piece a task
/// gathers into its own halo (GraphTask::gathers). Requires a graph that
/// performs its own exchange (ghostsPreExchanged == false), as every step
/// graph does. Expected: ReadUncovered naming the first starved reader
/// after the op of the same slot and the op — also when an earlier
/// exchange of the slot filled the lost layer, whose value is stale by
/// then; for a gathered piece, the gathering task as both.
GraphMutation shrinkGhostWrite(const TaskGraphModel& m,
                               std::uint64_t seed);

/// A seeded exchange-plan miscompilation plus the diagnostics it must
/// provoke. `expect == Ok` means the plan offered no candidate for this
/// mutation class (e.g. an empty plan has nothing to drop); callers skip
/// those. Otherwise checkCommPlan(model) must report a diagnostic of
/// kind `expect` whose (opA, opB) witness labels equal
/// (witnessA, witnessB) — empty strings mean "don't care" — and, when
/// `expectAlso != Ok`, a second diagnostic of that kind: the two
/// endpoints of the broken conversation each produce their half of the
/// evidence.
struct CommMutation {
  CommPlanModel model;
  std::string what; ///< human description of the injected bug
  CommDiagKind expect = CommDiagKind::Ok;
  CommDiagKind expectAlso = CommDiagKind::Ok;
  std::string witnessA;
  std::string witnessB;
};

/// Delete one op outright — the classic skipped neighbor in a plan
/// build. Expected: GhostGap naming the starved halo and the
/// geometry-derived send that should have fed it, plus UnmatchedRecv
/// for the send side.
CommMutation dropCommOp(const CommPlanModel& m, std::uint64_t seed);

/// Shave the outermost ghost layer off one op's dest region (a halo
/// fill that under-copies; needs nghost >= 2 for a candidate).
/// Expected: GhostGap over the shaved layer, plus ExtentMismatch between
/// the shrunken recv and the full-extent derived send.
CommMutation shrinkCommRegion(const CommPlanModel& m, std::uint64_t seed);

/// Skew one op's source shift by one cell (reading the neighbor's cells
/// off by one — the classic wrap-arithmetic bug). Expected:
/// ExtentMismatch reporting the shift disagreement; when no skew
/// direction keeps the source inside the valid region, SourceInvalid
/// fires as well.
CommMutation skewCommSource(const CommPlanModel& m, std::uint64_t seed);

/// Repoint one op's source at an unrelated box (send posted from the
/// wrong box; needs >= 2 boxes). Expected: UnmatchedSend at the
/// receiver plus UnmatchedRecv for the original sender's now-orphaned
/// send — the two-endpoint witness.
CommMutation unmatchCommSend(const CommPlanModel& m, std::uint64_t seed);

/// A seeded kernel-footprint miscompilation plus the diagnostics it must
/// provoke. The mutations edit an *inferred* KernelFootprintModel the way
/// a miscompiled kernel (observed set drifts) or a stale contract
/// (declared set drifts) would, so the tests and the kernelcheck tool can
/// prove checkKernelFootprints rejects each class with the right witness.
/// `expect == Ok` means the model offered no candidate (e.g. no role with
/// a declared footprint); callers skip those. Otherwise the check must
/// report a diagnostic of kind `expect` with role `role` and offset
/// `offset`; when `expectAlso != Ok`, an advisory of that kind for the
/// same role must fire as well.
struct KernelMutation {
  KernelFootprintModel model;
  std::string what; ///< human description of the injected bug
  KernelDiagKind expect = KernelDiagKind::Ok;
  KernelDiagKind expectAlso = KernelDiagKind::Ok;
  std::string role;
  grid::IntVect offset;
};

/// Widen one read role's observed set by one offset just outside the
/// declared hull — a kernel that reads one cell past its contract (the
/// classic <= vs < loop bound). Expected: UndeclaredRead at that offset.
KernelMutation widenKernelRead(const KernelFootprintModel& m,
                               std::uint64_t seed);

/// Shift one read role's entire observed set by +e_d — a kernel indexing
/// off by one whole cell (the classic face/cell confusion). Expected:
/// UndeclaredRead at the shifted high end, plus an Overdeclared advisory
/// at the now-unexercised low end.
KernelMutation shiftKernelStencil(const KernelFootprintModel& m,
                                  std::uint64_t seed);

/// Drop one declared-and-exercised offset from a read role's declared set
/// — a stale footprint contract after a stencil widening. Expected:
/// UndeclaredRead at the forgotten offset.
KernelMutation forgetDeclaredOffset(const KernelFootprintModel& m,
                                    std::uint64_t seed);

/// A seeded step-program miscompilation plus the op at which
/// checkStepProgram (analysis/stepcheck.hpp) must report it. Each factory
/// draws only among the edits that make the program read a never-written
/// slot part, so checkStepProgram(m.prog)'s FIRST diagnostic must be at
/// `witnessOp`, an index into the mutated program. `valid == false`
/// means no edit of this class does that (e.g. forward Euler's one
/// exchange fills u, whose ghosts are never unwritten); callers skip
/// those.
struct StepMutation {
  core::StepProgram prog; ///< the mutated program to check
  bool valid = false;     ///< false: no candidate for this class
  std::string what;       ///< human description of the injected bug
  int witnessOp = -1;     ///< predicted first ReadBeforeWrite op
};

/// Remove one Exchange op from the program — a builder that forgets the
/// exchange before a stage RHS. Candidates: the exchanges that give a
/// stage temp its first ghost frame before an RHS reads it. Expected:
/// ReadBeforeWrite at that RHS.
StepMutation dropStepExchange(const core::StepProgram& prog,
                              std::uint64_t seed);

/// Swap one adjacent op pair so the second op now reads what the first
/// one wrote before it is written — the classic stage RHS emitted before
/// its exchange, or a combine before the op that fills its operand.
/// Expected: ReadBeforeWrite at the hoisted op.
StepMutation reorderStepOps(const core::StepProgram& prog,
                            std::uint64_t seed);

} // namespace fluxdiv::analysis::mutate
