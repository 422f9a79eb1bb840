#pragma once
// commcheck: static verification of Copier ghost-exchange plans — the
// leg of the correctness net beside the task-graph race checker
// (analysis/graphcheck). From the same plan the executors consume it
// builds an exact region model and proves, per (layout, nghost) shape:
//
//   C1 exactness        every exchange-owned ghost cell of every box is
//                       written by exactly one incoming copy op (no gaps,
//                       no double-writes, no strays), and every op reads
//                       only valid interior cells of its source box.
//   C2 matching         an independent send-side re-derivation of the
//                       plan from layout geometry must agree op-for-op
//                       with the recv-side plan: every required send has
//                       its posted recv and vice versa, with identical
//                       region and source shift. C2 is the only check
//                       that catches a source shift skewed onto other
//                       valid cells.

#include <string>
#include <vector>

#include "grid/box.hpp"
#include "grid/copier.hpp"
#include "grid/layout.hpp"

namespace fluxdiv::analysis {

using grid::Box;

/// One exchange op in the model: a grid::CopyOp plus the stable label
/// (grid::Copier::opLabel) diagnostics quote, matching graphcheck's
/// labeled-witness style. Mutations edit these freely; the model is a
/// value type decoupled from the Copier it was built from.
struct CommOp {
  std::size_t destBox = 0;
  std::size_t srcBox = 0;
  Box destRegion;
  grid::IntVect srcShift;
  grid::IntVect sector;  ///< halo sector of destBox this op was built for
  std::string label;

  [[nodiscard]] Box srcRegion() const { return destRegion.shift(srcShift); }
};

/// Label of the geometry-derived send feeding `destBox`'s halo sector
/// `sector` from `srcBox` — what C1/C2 witnesses quote for the send side
/// ("send box3->box5 sector[+1,0,0]"). Exposed so mutation harnesses can
/// predict the exact witness string.
std::string derivedSendLabel(std::size_t srcBox, std::size_t destBox,
                             const grid::IntVect& sector);

/// A communication plan under test: the ops and the layout they
/// exchange over.
struct CommPlanModel {
  std::string name;               ///< for reports, e.g. "exchange 8@16^3 g2"
  grid::DisjointBoxLayout layout;
  int nghost = 0;
  std::vector<CommOp> ops;
};

/// Lift a Copier plan into the model, labels included.
CommPlanModel buildCommPlanModel(const grid::DisjointBoxLayout& layout,
                                 const grid::Copier& copier,
                                 std::string name = {});

enum class CommDiagKind {
  Ok,
  GhostGap,        ///< C1: exchange-owned ghost cells no op writes
  DoubleWrite,     ///< C1: two ops write intersecting dest regions
  StrayWrite,      ///< C1: op writes outside its box's ghost halo
  SourceInvalid,   ///< C1: op reads outside the source box's valid cells
  UnmatchedSend,   ///< C2: posted recv the geometry requires no send for
  UnmatchedRecv,   ///< C2: required send for which no recv is posted
  ExtentMismatch,  ///< C2: endpoints disagree on region or source shift
};
const char* commDiagKindName(CommDiagKind k);

/// One violation witness. `opA`/`opB` are labeled endpoints (plan-op
/// labels, or derived-send labels of the form "send box3->box5
/// sector[+1,0,0]"); `region` the offending cells in the destination
/// frame; `detail` kind-specific amplification (e.g. the disagreeing
/// source shifts of an ExtentMismatch).
struct CommDiagnostic {
  CommDiagKind kind = CommDiagKind::Ok;
  std::string plan;
  std::string opA;
  std::string opB;
  Box region;
  std::string detail;

  [[nodiscard]] bool ok() const { return kind == CommDiagKind::Ok; }
  [[nodiscard]] std::string message() const;
};

/// Everything checkCommPlan() proves.
struct CommCheckReport {
  std::vector<CommDiagnostic> diagnostics;

  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
};

/// Run C1 + C2 over `model`. Diagnostics carry labeled two-endpoint
/// witnesses; an empty list is the proof.
CommCheckReport checkCommPlan(const CommPlanModel& model);

} // namespace fluxdiv::analysis
