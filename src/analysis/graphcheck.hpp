#pragma once
// Static race verifier over lowered task graphs (docs/static-analysis.md,
// "Task-graph verification"): it proves the *concurrent layer* legal —
// the whole-RK-step task graphs the step-graph executor (core/stepgraph)
// hands to the work-stealing TaskPool: ghost exchange copy-op tasks,
// boundary fills, whole-box/tile RHS tasks, and stage combines.
//
// The executor mirrors every graph it builds into a TaskGraphModel — one
// node per task with its exact rectangular read/write footprints (the RHS
// reads are the per-stage regions of kernels/footprint.hpp) — and
// checkTaskGraph() then proves:
//
//   G1 (acyclic)        the dependency edges admit a topological order.
//   G2 (ordered races)  every pair of tasks with overlapping write/write
//                       or read/write footprints is ordered by the
//                       happens-before relation (bitset transitive closure
//                       over each weakly-connected component, so 64-box
//                       levels stay fast: cross-component pairs share no
//                       edges at all and must simply not conflict).
//   G3 (ghost coverage) when the graph itself performs the exchange
//                       (ghostsPreExchanged == false), every ghost-region
//                       read is covered by the union of the reader's own
//                       gathered pieces (GraphTask::gathers, written in
//                       the task before it reads) and the exchange-op
//                       writes that happen-before the reader and are still
//                       current: no task ordered between write and read
//                       overwrites the cells the writer copied from (else
//                       the ghost holds an earlier stage's value).
//
// Violations come back as a structured Diagnostic naming both tasks and a
// witness cell region. The checker also flags *over*-synchronization —
// edges whose removal provably keeps the graph race-free — as advisory
// notes feeding the cost model's parallelism metrics (advisor
// CostNoteKind::OverSynchronized).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/model.hpp"

namespace fluxdiv::analysis {

enum class DiagnosticKind {
  Ok,
  ReadUncovered,   ///< ghost read no current exchange-op write covers
  WriteOverlap,    ///< unordered tasks write intersecting regions
  ReadWriteRace,   ///< a task reads what an unordered task writes
  DependencyCycle, ///< task-graph edges admit no topological order
};

const char* diagnosticKindName(DiagnosticKind k);

/// Structured verification verdict. `stageA` is the consuming/first task's
/// label, `stageB` the producing/conflicting one's, `itemA`/`itemB` their
/// task tags, `region` the violating cell region.
struct Diagnostic {
  DiagnosticKind kind = DiagnosticKind::Ok;
  std::string variant; ///< TaskGraphModel::name
  std::string stageA;
  std::string stageB;
  std::string itemA;
  std::string itemB;
  grid::Box region;

  [[nodiscard]] bool ok() const { return kind == DiagnosticKind::Ok; }
  /// One-line human-readable rendering of the verdict.
  [[nodiscard]] std::string message() const;
};

/// One rectangular access of a task. Unlike the per-box Access of
/// model.hpp, a task access is qualified by the index of the LevelData box
/// it touches: phi0 of box 3 and phi0 of box 5 are distinct storage.
struct TaskAccess {
  FieldId field = FieldId::Phi0;
  std::size_t box = 0; ///< owning box of the fab
  /// Storage slot for multi-LevelData graphs (core/stepgraph.hpp): whole-RK
  /// step graphs touch several LevelData objects (u plus the stage
  /// temporaries), and slot 3's box 2 is distinct storage from slot 0's
  /// box 2 even though both model as FieldId::Phi0.
  int slot = 0;
  int comp0 = 0;
  int nComp = 1;
  Box region;

  /// True if the two accesses can touch the same memory.
  [[nodiscard]] bool overlaps(const TaskAccess& o) const {
    return field == o.field && box == o.box && slot == o.slot &&
           comp0 < o.comp0 + o.nComp && o.comp0 < comp0 + nComp &&
           region.intersects(o.region);
  }
};

/// One task of the lowered graph: label for diagnostics, exact footprints,
/// outgoing dependency edges. `exchangeOp` marks the ghost-exchange copy
/// tasks whose Phi0 writes satisfy the G3 coverage rule. `orderingOnly`
/// marks tasks that exist purely to sequence the graph (e.g. the step
/// graphs' shadow-epoch barriers): their conservative whole-fab footprints
/// still participate in G2 ordering, but G3 neither demands coverage for
/// their reads nor accepts their writes as ghost coverage.
/// `rhsSourceSlot` marks the flux-divergence tasks: the slot their stencil
/// reads (their writes land in the destination slot), -1 for every other
/// task. K3 (analysis/kernelcheck) checks exactly these tasks' footprints.
/// `gathers` are ghost cells the task fills in its own halo buffer before
/// it reads them (a gathering RHS task copies its neighbours' valid cells,
/// which it lists as reads): they cover that task's own ghost reads under
/// G3 and are private storage, so G2 never sees them.
struct GraphTask {
  std::string label;
  std::vector<TaskAccess> reads;
  std::vector<TaskAccess> writes;
  std::vector<TaskAccess> gathers;
  std::vector<int> successors;
  bool exchangeOp = false;
  bool orderingOnly = false;
  int rhsSourceSlot = -1;
};

/// The analysis-side mirror of one core::TaskGraph, built by the step-graph
/// executor from the same code path that builds the executable graph (so
/// the model cannot drift from what actually runs).
struct TaskGraphModel {
  std::string name;           ///< variant + fuse + policy (+ phase)
  bool ghostsPreExchanged = true; ///< ghosts current at start (no G3)
  std::vector<Box> validBoxes;    ///< per-box valid regions (G3)
  std::vector<GraphTask> tasks;

  int addTask(std::string label);
  void addEdge(int before, int after);
  [[nodiscard]] std::size_t edgeCount() const;
  [[nodiscard]] const std::string& label(int task) const {
    return tasks[static_cast<std::size_t>(task)].label;
  }
};

/// An advisory over-synchronization finding: removing `before -> after`
/// provably keeps the graph race-free (G2/G3 still hold).
struct RemovableEdge {
  int before = -1;
  int after = -1;
  std::string reason;
};

/// Result of one checkTaskGraph() pass. `diagnostics` is empty iff the
/// graph is provably race-free; `removable` is advisory only.
struct GraphCheckReport {
  std::string graph; ///< TaskGraphModel::name
  std::vector<Diagnostic> diagnostics;
  std::vector<RemovableEdge> removable;
  std::int64_t taskCount = 0;
  std::int64_t edgeCount = 0;
  std::int64_t componentCount = 0; ///< weakly-connected components
  std::int64_t criticalPath = 0;   ///< longest dependency chain, in tasks

  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
};

/// Verify G1-G3 over `m`. With `findRemovable`, also run the
/// over-synchronization pass (quadratic in component size per candidate
/// edge; the runtime gate leaves it off, the CLI/advisor turn it on).
GraphCheckReport checkTaskGraph(const TaskGraphModel& m,
                                bool findRemovable = false);

} // namespace fluxdiv::analysis
