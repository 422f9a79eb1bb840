#include "analysis/mutate.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "kernels/footprint.hpp"

namespace fluxdiv::analysis::mutate {

ScheduleModel shallowHalo(ScheduleModel m) {
  m.ghost = m.ghost > 0 ? m.ghost - 1 : 0;
  return m;
}

ScheduleModel weakSkew(ScheduleModel m) {
  for (auto& cone : m.cones) {
    cone.skew[2] = 0;
  }
  return m;
}

ScheduleModel thinOverlap(ScheduleModel m) {
  for (auto& phase : m.phases) {
    for (auto& item : phase.items) {
      for (auto& stage : item.stages) {
        if (stage.stage.find("EvalFlux1[d=x]") == std::string::npos) {
          continue;
        }
        for (auto& w : stage.writes) {
          if (!w.box.empty()) {
            w.box = Box(w.box.lo(), w.box.hi() - IntVect::basis(0));
          }
        }
      }
    }
  }
  return m;
}

ScheduleModel overlappingTileWrites(ScheduleModel m) {
  for (auto& phase : m.phases) {
    if (phase.items.size() < 2) {
      continue; // only concurrent writers can overlap
    }
    for (auto& item : phase.items) {
      for (auto& stage : item.stages) {
        for (auto& w : stage.writes) {
          if (w.field == FieldId::Phi1 && !w.box.empty()) {
            w.box = w.box.grow(1);
          }
        }
      }
    }
  }
  return m;
}

ScheduleModel droppedBarrier(ScheduleModel m, std::size_t phase) {
  if (phase + 1 >= m.phases.size()) {
    return m;
  }
  Phase& a = m.phases[phase];
  Phase& b = m.phases[phase + 1];
  a.name += " + " + b.name + " (barrier dropped)";
  // Merge item-by-item: slab i of the first phase continues straight into
  // slab i of the second with no synchronization in between.
  for (std::size_t i = 0; i < b.items.size(); ++i) {
    if (i < a.items.size()) {
      for (auto& s : b.items[i].stages) {
        a.items[i].stages.push_back(std::move(s));
      }
    } else {
      a.items.push_back(std::move(b.items[i]));
    }
  }
  m.phases.erase(m.phases.begin() + static_cast<std::ptrdiff_t>(phase) + 1);
  return m;
}

// ---------------------------------------------------------------------------
// Task-graph mutations.
// ---------------------------------------------------------------------------

namespace {

/// Direct-conflict classification of a task pair, mirroring the checker's
/// witness precedence: write/write overlap dominates read/write.
DiagnosticKind graphConflictKind(const GraphTask& a, const GraphTask& b) {
  for (const auto& wa : a.writes) {
    for (const auto& wb : b.writes) {
      if (wa.overlaps(wb)) {
        return DiagnosticKind::WriteOverlap;
      }
    }
  }
  for (const auto& wa : a.writes) {
    for (const auto& rb : b.reads) {
      if (wa.overlaps(rb)) {
        return DiagnosticKind::ReadWriteRace;
      }
    }
  }
  for (const auto& wb : b.writes) {
    for (const auto& ra : a.reads) {
      if (wb.overlaps(ra)) {
        return DiagnosticKind::ReadWriteRace;
      }
    }
  }
  return DiagnosticKind::Ok;
}

/// Is `to` reachable from `from` when one direct from->to edge instance is
/// ignored? True means dropping that one edge cannot unorder the pair
/// (a duplicate edge or an alternate path still orders it).
bool reachableSansEdge(const TaskGraphModel& m, int from, int to) {
  std::vector<char> visited(m.tasks.size(), 0);
  std::vector<int> stack{from};
  visited[static_cast<std::size_t>(from)] = 1;
  bool skipped = false;
  while (!stack.empty()) {
    const int x = stack.back();
    stack.pop_back();
    for (const int s : m.tasks[static_cast<std::size_t>(x)].successors) {
      if (x == from && s == to && !skipped) {
        skipped = true; // the instance being dropped
        continue;
      }
      if (s == to) {
        return true;
      }
      if (!visited[static_cast<std::size_t>(s)]) {
        visited[static_cast<std::size_t>(s)] = 1;
        stack.push_back(s);
      }
    }
  }
  return false;
}

bool reachable(const TaskGraphModel& m, int from, int to) {
  if (from == to) {
    return true;
  }
  std::vector<char> visited(m.tasks.size(), 0);
  std::vector<int> stack{from};
  visited[static_cast<std::size_t>(from)] = 1;
  while (!stack.empty()) {
    const int x = stack.back();
    stack.pop_back();
    for (const int s : m.tasks[static_cast<std::size_t>(x)].successors) {
      if (s == to) {
        return true;
      }
      if (!visited[static_cast<std::size_t>(s)]) {
        visited[static_cast<std::size_t>(s)] = 1;
        stack.push_back(s);
      }
    }
  }
  return false;
}

/// Edges whose removal provably unorders a directly-conflicting pair: the
/// endpoints conflict, and no duplicate edge or alternate path keeps them
/// ordered. Deterministic enumeration order (task id, successor position).
std::vector<std::pair<int, int>>
conflictCarryingEdges(const TaskGraphModel& m) {
  std::vector<std::pair<int, int>> out;
  for (std::size_t u = 0; u < m.tasks.size(); ++u) {
    for (const int v : m.tasks[u].successors) {
      const int ui = static_cast<int>(u);
      if (graphConflictKind(m.tasks[u],
                            m.tasks[static_cast<std::size_t>(v)]) !=
              DiagnosticKind::Ok &&
          !reachableSansEdge(m, ui, v)) {
        out.emplace_back(ui, v);
      }
    }
  }
  return out;
}

void eraseOneEdge(TaskGraphModel& m, int u, int v) {
  auto& succs = m.tasks[static_cast<std::size_t>(u)].successors;
  const auto it = std::find(succs.begin(), succs.end(), v);
  if (it != succs.end()) {
    succs.erase(it);
  }
}

} // namespace

GraphMutation dropGraphEdge(const TaskGraphModel& m, std::uint64_t seed) {
  GraphMutation out;
  out.model = m;
  const auto cands = conflictCarryingEdges(m);
  if (cands.empty()) {
    out.what = "no conflict-carrying edge to drop";
    return out;
  }
  const auto [u, v] = cands[seed % cands.size()];
  eraseOneEdge(out.model, u, v);
  out.expect = graphConflictKind(m.tasks[static_cast<std::size_t>(u)],
                                 m.tasks[static_cast<std::size_t>(v)]);
  out.taskA = std::min(u, v);
  out.taskB = std::max(u, v);
  out.what =
      "drop edge '" + m.label(u) + "' -> '" + m.label(v) + "'";
  return out;
}

GraphMutation rerouteGraphEdge(const TaskGraphModel& m,
                               std::uint64_t seed) {
  GraphMutation out;
  out.model = m;
  const auto cands = conflictCarryingEdges(m);
  if (cands.empty()) {
    out.what = "no conflict-carrying edge to reroute";
    return out;
  }
  const auto [u, v] = cands[seed % cands.size()];
  eraseOneEdge(out.model, u, v);
  out.expect = graphConflictKind(m.tasks[static_cast<std::size_t>(u)],
                                 m.tasks[static_cast<std::size_t>(v)]);
  out.taskA = std::min(u, v);
  out.taskB = std::max(u, v);
  out.what =
      "reroute edge '" + m.label(u) + "' -> '" + m.label(v) + "'";
  // Re-aim the edge at an unrelated task: no cycle (w must not reach u)
  // and no accidental repair (w must not reach v, or u -> w -> v would
  // re-order the pair we just unordered).
  for (std::size_t w = 0; w < out.model.tasks.size(); ++w) {
    const int wi = static_cast<int>(w);
    if (wi == u || wi == v || reachable(out.model, wi, u) ||
        reachable(out.model, wi, v)) {
      continue;
    }
    out.model.addEdge(u, wi);
    out.what += " to '" + m.label(wi) + "'";
    return out;
  }
  out.what += " (no reroute target; plain drop)";
  return out;
}

GraphMutation shrinkGhostWrite(const TaskGraphModel& m,
                               std::uint64_t seed) {
  GraphMutation out;
  out.model = m;
  if (m.ghostsPreExchanged) {
    out.what = "graph performs no exchange; nothing to shrink";
    return out;
  }
  struct Cand {
    int op = -1;
    std::size_t write = 0;
    Box lost;
    Box shrunk;
    int reader = -1;
    const char* side = "";
  };
  std::vector<Cand> cands;
  for (std::size_t t = 0; t < m.tasks.size(); ++t) {
    if (!m.tasks[t].exchangeOp) {
      continue;
    }
    for (std::size_t wi = 0; wi < m.tasks[t].writes.size(); ++wi) {
      const TaskAccess& w = m.tasks[t].writes[wi];
      if (w.field != FieldId::Phi0 || w.box >= m.validBoxes.size()) {
        continue;
      }
      const Box valid = m.validBoxes[w.box];
      // Peel the outermost ghost layer of the fill, per direction/side.
      for (int d = 0; d < grid::SpaceDim; ++d) {
        for (int side = 0; side < 2; ++side) {
          Box lost;
          Box shrunk;
          if (side == 0 && w.region.lo(d) < valid.lo(d)) {
            lost = w.region.lowSlab(d, 1);
            shrunk = Box(w.region.lo() + IntVect::basis(d),
                         w.region.hi());
          } else if (side == 1 && w.region.hi(d) > valid.hi(d)) {
            lost = w.region.highSlab(d, 1);
            shrunk = Box(w.region.lo(),
                         w.region.hi() - IntVect::basis(d));
          } else {
            continue;
          }
          // The starved reader the checker will name: the lowest-id
          // compute task after the op whose Phi0 read of this box needs a
          // lost cell (tasks are numbered in program order).
          int reader = -1;
          for (std::size_t r = t + 1; r < m.tasks.size() && reader < 0;
               ++r) {
            if (m.tasks[r].exchangeOp) {
              continue;
            }
            for (const TaskAccess& ra : m.tasks[r].reads) {
              if (ra.field == FieldId::Phi0 && ra.box == w.box &&
                  ra.slot == w.slot && w.comp0 <= ra.comp0 &&
                  ra.comp0 + ra.nComp <= w.comp0 + w.nComp &&
                  ra.region.intersects(lost)) {
                reader = static_cast<int>(r);
                break;
              }
            }
          }
          if (reader >= 0) {
            cands.push_back({static_cast<int>(t), wi, lost, shrunk,
                             reader,
                             side == 0 ? "low" : "high"});
          }
        }
      }
    }
  }
  if (cands.empty()) {
    out.what = "no ghost write feeds a modeled read; nothing to shrink";
    return out;
  }
  const Cand& c = cands[seed % cands.size()];
  out.model.tasks[static_cast<std::size_t>(c.op)]
      .writes[c.write]
      .region = c.shrunk;
  out.expect = DiagnosticKind::ReadUncovered;
  out.taskA = c.reader;
  out.taskB = c.op;
  out.what = "shrink ghost write of '" + m.label(c.op) + "' by its " +
             c.side + " layer (starves '" + m.label(c.reader) + "')";
  return out;
}

CommMutation dropCommOp(const CommPlanModel& m, std::uint64_t seed) {
  CommMutation out;
  out.model = m;
  if (m.ops.empty()) {
    out.what = "plan has no ops; nothing to drop";
    return out;
  }
  const std::size_t i = seed % m.ops.size();
  const CommOp op = m.ops[i];
  out.model.ops.erase(out.model.ops.begin() +
                      static_cast<std::ptrdiff_t>(i));
  out.expect = CommDiagKind::GhostGap;
  out.expectAlso = CommDiagKind::UnmatchedRecv;
  out.witnessA = "box" + std::to_string(op.destBox) + " ghost halo";
  out.witnessB = derivedSendLabel(op.srcBox, op.destBox, op.sector);
  out.what = "drop '" + op.label + "' (skipped neighbor in the plan build)";
  return out;
}

CommMutation shrinkCommRegion(const CommPlanModel& m, std::uint64_t seed) {
  CommMutation out;
  out.model = m;
  // Candidates: (op, axis) pairs where shaving the outermost ghost
  // layer along the op's sector axis leaves a non-empty region, so the
  // mutation under-copies rather than degenerating into a drop.
  struct Cand {
    std::size_t op = 0;
    int axis = 0;
  };
  std::vector<Cand> cands;
  for (std::size_t i = 0; i < m.ops.size(); ++i) {
    const CommOp& op = m.ops[i];
    for (int d = 0; d < grid::SpaceDim; ++d) {
      if (op.sector[d] != 0 &&
          op.destRegion.hi(d) > op.destRegion.lo(d)) {
        cands.push_back({i, d});
      }
    }
  }
  if (cands.empty()) {
    out.what = "every op is one layer deep; nothing to shrink";
    return out;
  }
  const Cand& c = cands[seed % cands.size()];
  CommOp& op = out.model.ops[c.op];
  grid::IntVect lo = op.destRegion.lo();
  grid::IntVect hi = op.destRegion.hi();
  // The outermost layer is the one farthest from the valid box: the low
  // side for a -1 sector, the high side for +1.
  if (op.sector[c.axis] < 0) {
    lo[c.axis] += 1;
  } else {
    hi[c.axis] -= 1;
  }
  op.destRegion = Box(lo, hi);
  out.expect = CommDiagKind::GhostGap;
  out.expectAlso = CommDiagKind::ExtentMismatch;
  out.witnessA = "box" + std::to_string(op.destBox) + " ghost halo";
  out.witnessB = derivedSendLabel(op.srcBox, op.destBox, op.sector);
  out.what = "shrink '" + op.label + "' by its outermost layer in dim " +
             std::to_string(c.axis) + " (halo fill under-copies)";
  return out;
}

CommMutation skewCommSource(const CommPlanModel& m, std::uint64_t seed) {
  CommMutation out;
  out.model = m;
  if (m.ops.empty()) {
    out.what = "plan has no ops; nothing to skew";
    return out;
  }
  const std::size_t i = seed % m.ops.size();
  CommOp& op = out.model.ops[i];
  const Box srcValid = m.layout.box(op.srcBox);
  // Prefer a one-cell skew that keeps the source inside the valid
  // region, so the bug is pure C2 (wrong cells, not invalid cells);
  // fall back to any skew and expect SourceInvalid as well.
  grid::IntVect best;
  bool staysValid = false;
  for (int d = 0; d < grid::SpaceDim && !staysValid; ++d) {
    for (const int s : {-1, 1}) {
      grid::IntVect delta;
      delta[d] = s;
      if (srcValid.contains(
              op.destRegion.shift(op.srcShift + delta))) {
        best = delta;
        staysValid = true;
        break;
      }
    }
  }
  if (!staysValid) {
    best = grid::IntVect(1, 0, 0);
  }
  op.srcShift += best;
  out.expect = CommDiagKind::ExtentMismatch;
  out.expectAlso =
      staysValid ? CommDiagKind::Ok : CommDiagKind::SourceInvalid;
  out.witnessA = op.label;
  out.witnessB = derivedSendLabel(op.srcBox, op.destBox, op.sector);
  out.what = "skew source of '" + op.label +
             "' by one cell (wrap arithmetic off by one)";
  return out;
}

CommMutation unmatchCommSend(const CommPlanModel& m, std::uint64_t seed) {
  CommMutation out;
  out.model = m;
  if (m.ops.empty() || m.layout.size() < 2) {
    out.what = "plan needs >= 2 boxes to repoint a send; no candidate";
    return out;
  }
  const std::size_t i = seed % m.ops.size();
  CommOp& op = out.model.ops[i];
  const std::size_t original = op.srcBox;
  op.srcBox = (op.srcBox + 1 + seed % (m.layout.size() - 1)) %
              m.layout.size();
  if (op.srcBox == original) {
    op.srcBox = (op.srcBox + 1) % m.layout.size();
  }
  out.expect = CommDiagKind::UnmatchedSend;
  out.expectAlso = CommDiagKind::UnmatchedRecv;
  out.witnessA = op.label;
  out.witnessB = "";  // no geometric send exists from the wrong box
  out.what = "repoint source of '" + op.label + "' from box" +
             std::to_string(original) + " to box" +
             std::to_string(op.srcBox) + " (send posted by the wrong box)";
  return out;
}

namespace {

/// Candidate read roles for kernel mutations: roles with a nonempty
/// declared footprint (and, for the observed-set edits, observations to
/// drift). Returns indices into m.reads.
std::vector<std::size_t> kernelRoleCandidates(const KernelFootprintModel& m,
                                              bool needObserved) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < m.reads.size(); ++i) {
    if (m.reads[i].declared.empty()) {
      continue;
    }
    if (needObserved && m.reads[i].observed.empty()) {
      continue;
    }
    idx.push_back(i);
  }
  return idx;
}

grid::IntVect offsetHullHi(const std::vector<grid::IntVect>& pts) {
  grid::IntVect hi = pts.front();
  for (const grid::IntVect& p : pts) {
    hi = grid::IntVect::max(hi, p);
  }
  return hi;
}

grid::IntVect offsetHullLo(const std::vector<grid::IntVect>& pts) {
  grid::IntVect lo = pts.front();
  for (const grid::IntVect& p : pts) {
    lo = grid::IntVect::min(lo, p);
  }
  return lo;
}

} // namespace

KernelMutation widenKernelRead(const KernelFootprintModel& m,
                               std::uint64_t seed) {
  KernelMutation mut;
  mut.model = m;
  const std::vector<std::size_t> cand = kernelRoleCandidates(m, false);
  if (cand.empty()) {
    mut.what = "widenKernelRead: no role with a declared footprint";
    return mut;
  }
  const std::size_t ri = cand[seed % cand.size()];
  RoleFootprint& r = mut.model.reads[ri];
  const int d = static_cast<int>((seed / cand.size()) % 3);
  // One cell past the declared hull along d: the <=-vs-< loop bound bug.
  const grid::IntVect extra =
      offsetHullHi(r.declared) + grid::IntVect::basis(d);
  r.observed.push_back(extra);
  r.witnesses.push_back(m.probeRegion.empty() ? grid::IntVect::zero()
                                              : m.probeRegion.lo());
  mut.what = "kernel reads one cell past the declared hull (" + r.role + ")";
  mut.expect = KernelDiagKind::UndeclaredRead;
  mut.role = r.role;
  mut.offset = extra;
  return mut;
}

KernelMutation shiftKernelStencil(const KernelFootprintModel& m,
                                  std::uint64_t seed) {
  KernelMutation mut;
  mut.model = m;
  const std::vector<std::size_t> cand = kernelRoleCandidates(m, true);
  if (cand.empty()) {
    mut.what = "shiftKernelStencil: no role with observed offsets";
    return mut;
  }
  const std::size_t ri = cand[seed % cand.size()];
  RoleFootprint& r = mut.model.reads[ri];
  const int d =
      m.dir >= 0 ? m.dir : static_cast<int>((seed / cand.size()) % 3);
  const grid::IntVect shift = grid::IntVect::basis(d);
  for (grid::IntVect& o : r.observed) {
    o += shift;
  }
  // The witness must be an offset the kernel actually observes: for a
  // non-rectangular stencil (the whole-pipeline fused roles) the hull
  // corner is not a member, so pick the shifted member that left the
  // declared set farthest along the shift axis (ties broken
  // lexicographically — a rectangular stencil still yields its hull-hi
  // corner). The declared low end is no longer exercised, so the shift
  // also predicts an Overdeclared advisory when that corner was a member.
  bool escaped = false;
  grid::IntVect witness{};
  for (const grid::IntVect& o : r.observed) {
    if (std::find(r.declared.begin(), r.declared.end(), o) !=
        r.declared.end()) {
      continue;
    }
    bool better = !escaped;
    if (escaped) {
      if (o[d] != witness[d]) {
        better = o[d] > witness[d];
      } else {
        for (int k = 0; k < 3; ++k) {
          if (o[k] != witness[k]) {
            better = o[k] > witness[k];
            break;
          }
        }
      }
    }
    if (better) {
      witness = o;
      escaped = true;
    }
  }
  if (!escaped) {
    mut.model = m;
    mut.what = "shiftKernelStencil: shift leaves the declared set covered";
    return mut;
  }
  mut.what = "kernel stencil shifted by +e_" + std::to_string(d) + " (" +
             r.role + ")";
  mut.expect = KernelDiagKind::UndeclaredRead;
  mut.offset = witness;
  mut.role = r.role;
  const grid::IntVect lostLo = offsetHullLo(r.declared);
  if (std::find(r.observed.begin(), r.observed.end(), lostLo) ==
      r.observed.end()) {
    mut.expectAlso = KernelDiagKind::Overdeclared;
  }
  return mut;
}

KernelMutation forgetDeclaredOffset(const KernelFootprintModel& m,
                                    std::uint64_t seed) {
  KernelMutation mut;
  mut.model = m;
  // Need a declared offset that the kernel actually exercises, so the
  // forgetting is observable.
  std::vector<std::pair<std::size_t, std::size_t>> cand;
  for (std::size_t i = 0; i < m.reads.size(); ++i) {
    for (std::size_t j = 0; j < m.reads[i].declared.size(); ++j) {
      const grid::IntVect& o = m.reads[i].declared[j];
      if (std::find(m.reads[i].observed.begin(), m.reads[i].observed.end(),
                    o) != m.reads[i].observed.end()) {
        cand.emplace_back(i, j);
      }
    }
  }
  if (cand.empty()) {
    mut.what = "forgetDeclaredOffset: no exercised declared offset";
    return mut;
  }
  const auto [ri, oi] = cand[seed % cand.size()];
  RoleFootprint& r = mut.model.reads[ri];
  const grid::IntVect lost = r.declared[oi];
  r.declared.erase(r.declared.begin() + static_cast<std::ptrdiff_t>(oi));
  mut.what = "contract forgets declared offset at " + r.role;
  mut.expect = KernelDiagKind::UndeclaredRead;
  mut.role = r.role;
  mut.offset = lost;
  return mut;
}

// ------------------------------------------------------------------ steps
//
// The predictions below use the fixed halo widths of every step program:
// an exchange or boundary fill writes ghost layers 1..kNumGhost, a
// compute op writes the valid region (layers <= 0), and an RHS reads its
// source kNumGhost layers beyond what it writes.

namespace {

using core::StepOp;
using core::StepOpKind;
using core::StepProgram;

constexpr int kG = kernels::kNumGhost;

/// Sentinel: the slot (still) agrees with the reference at every layer.
constexpr int kCleanLayer = 1 << 20;

bool stepWritesInterior(StepOpKind k) {
  return k == StepOpKind::RhsEval || k == StepOpKind::CopySlot ||
         k == StepOpKind::AxpySlot || k == StepOpKind::ScaleSlot;
}

/// Forward staleness pass predicting checkStepProgram's witness when the
/// exchange at op `from` is missing and its slot's ghosts stay stale: per
/// slot, track the lowest layer whose content diverges from the reference
/// (the corrupt band is [c, kG]); the witness is the first op whose
/// *written interior* (layer <= 0) the corruption reaches. Deliberately
/// independent of the checker's band interpreter — the tests assert the
/// two agree.
int predictStaleWitness(const StepProgram& prog, std::size_t from) {
  std::vector<int> c(static_cast<std::size_t>(prog.nSlots), kCleanLayer);
  const auto s = [](int slot) { return static_cast<std::size_t>(slot); };
  c[s(prog.ops[from].dst)] = 1;
  // Ghost-layer corruption survives an op that overwrites the interior.
  const auto remnant = [](int old) {
    return old == kCleanLayer || old > 0 ? old : 1;
  };
  for (std::size_t i = from + 1; i < prog.ops.size(); ++i) {
    const StepOp& op = prog.ops[i];
    switch (op.kind) {
    case StepOpKind::Exchange:
      // A mirror-refill from a clean interior repairs every ghost layer.
      if (c[s(op.dst)] > 0) {
        c[s(op.dst)] = kCleanLayer;
      }
      break;
    case StepOpKind::BoundaryFill:
      break;
    case StepOpKind::RhsEval: {
      // The stencil at layer L reads src [L-kG, L+kG]: corruption moves
      // inward by kG and lands everywhere the op writes (layers <= 0).
      const int in = c[s(op.src)];
      const int out = in <= kG ? in - kG : kCleanLayer;
      c[s(op.dst)] = std::min(out, remnant(c[s(op.dst)]));
      break;
    }
    case StepOpKind::CopySlot: {
      const int in = c[s(op.src)] <= 0 ? c[s(op.src)] : kCleanLayer;
      c[s(op.dst)] = std::min(in, remnant(c[s(op.dst)]));
      break;
    }
    case StepOpKind::AxpySlot: {
      // Accumulates in place: old corruption persists, src's joins.
      const int in = c[s(op.src)] <= 0 ? c[s(op.src)] : kCleanLayer;
      c[s(op.dst)] = std::min(c[s(op.dst)], in);
      break;
    }
    case StepOpKind::ScaleSlot:
      break; // in place: corruption neither spreads nor heals
    }
    if (stepWritesInterior(op.kind) && c[s(op.dst)] <= 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Layers a slot read reaches: RHS stencils read kG beyond the valid
/// region, combines read exactly the valid region, and exchange and BC
/// fill read interior mirrors only.
int stepReadDepth(const StepOp& op) {
  return op.kind == StepOpKind::RhsEval ? kG : 0;
}

/// Sentinel: every layer of the slot is still unwritten.
constexpr int kUninitAll = -kCleanLayer;

/// Per slot, the lowest still-unwritten layer after executing ops
/// [0, upTo). Slot 0 starts fully defined (u plus stale-but-written
/// ghosts); stage temps start unwritten everywhere.
std::vector<int> stepUninitFrom(const StepProgram& prog, std::size_t upTo) {
  std::vector<int> u(static_cast<std::size_t>(prog.nSlots), kUninitAll);
  u[0] = kCleanLayer;
  for (std::size_t j = 0; j < upTo; ++j) {
    const StepOp& op = prog.ops[j];
    int& ud = u[static_cast<std::size_t>(op.dst)];
    if (stepWritesInterior(op.kind)) {
      ud = std::max(ud, 1);
    } else if (ud >= 1) { // ghost fill from a written interior
      ud = std::max(ud, kG + 1);
    }
  }
  return u;
}

std::vector<int> stepReadSlots(const StepOp& op) {
  switch (op.kind) {
  case StepOpKind::Exchange:      // mirrors its own interior into ghosts
  case StepOpKind::BoundaryFill:
  case StepOpKind::ScaleSlot:
    return {op.dst};
  case StepOpKind::RhsEval:
  case StepOpKind::CopySlot:
    return {op.src};
  case StepOpKind::AxpySlot:
    return {op.src, op.dst};
  }
  return {};
}

std::string stepOpWhat(const StepProgram& prog, std::size_t i) {
  const StepOp& op = prog.ops[i];
  return "op " + std::to_string(i) + " ('" + prog.slotName(op.dst) +
         "', step " + std::to_string(op.step) + ")";
}

/// Predict checkStepProgram's verdict for `prog` without its exchange at
/// op `from`; `witnessOp` indexes `prog`. Two regimes: if the slot's ghost
/// layers were never written before (a stage temp's first exchange), the
/// first op reading them trips ReadBeforeWrite; if they held older
/// (stale) values, the staleness pass locates the first interior the
/// divergence reaches (ValueMismatch). Returns false when the damage
/// never reaches a reader.
bool predictExchangeWitness(const StepProgram& prog, std::size_t from,
                            StepDiagKind& kind, int& witnessOp) {
  const int dst = prog.ops[from].dst;
  int unwritten = std::max(1, stepUninitFrom(prog, from)[
                                  static_cast<std::size_t>(dst)]);
  if (unwritten <= kG) {
    for (std::size_t j = from + 1; j < prog.ops.size(); ++j) {
      const StepOp& op = prog.ops[j];
      const std::vector<int> reads = stepReadSlots(op);
      if (std::find(reads.begin(), reads.end(), dst) != reads.end() &&
          stepReadDepth(op) >= unwritten) {
        kind = StepDiagKind::ReadBeforeWrite;
        witnessOp = static_cast<int>(j);
        return true;
      }
      if (op.dst == dst) { // later writes can define the missing layers
        unwritten =
            std::max(unwritten, stepWritesInterior(op.kind) ? 1 : kG + 1);
        if (unwritten > kG) {
          return false; // fully repaired before any deep read
        }
      }
    }
    return false;
  }
  const int wit = predictStaleWitness(prog, from);
  if (wit < 0) {
    return false;
  }
  kind = StepDiagKind::ValueMismatch;
  witnessOp = wit;
  return true;
}

} // namespace

StepMutation dropStepExchange(const core::StepProgram& prog,
                              std::uint64_t seed) {
  StepMutation mut;
  mut.prog = prog;
  mut.reference = prog;
  std::vector<std::size_t> cand;
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    if (prog.ops[i].kind == StepOpKind::Exchange) {
      cand.push_back(i);
    }
  }
  if (cand.empty()) {
    mut.what = "dropStepExchange: no exchange to drop";
    return mut;
  }
  const std::size_t i = cand[seed % cand.size()];
  if (!predictExchangeWitness(prog, i, mut.expect, mut.witnessOp)) {
    mut.what = "dropStepExchange: missing ghosts never reach a reader";
    return mut;
  }
  mut.prog.ops.erase(mut.prog.ops.begin() + static_cast<std::ptrdiff_t>(i));
  --mut.witnessOp; // the witness follows the dropped op: one index down
  mut.useReference = true;
  mut.valid = true;
  mut.what = "dropped exchange " + stepOpWhat(prog, i);
  return mut;
}

StepMutation reorderStepOps(const core::StepProgram& prog,
                            std::uint64_t seed) {
  StepMutation mut;
  mut.prog = prog;
  mut.reference = prog;
  // Adjacent pairs where one op writes a slot the other touches — swapping
  // those genuinely changes the step's dataflow (independent pairs would
  // still be flagged by the intensional lockstep, but the mutation should
  // model a real miscompilation, not an overly strict checker).
  std::vector<std::size_t> cand;
  for (std::size_t i = 0; i + 1 < prog.ops.size(); ++i) {
    const StepOp& x = prog.ops[i];
    const StepOp& y = prog.ops[i + 1];
    if (x == y) {
      continue;
    }
    if (!stepWritesInterior(x.kind) && !stepWritesInterior(y.kind)) {
      continue; // ghost-fill pairs on different slots commute
    }
    if (x.kind == StepOpKind::ScaleSlot && y.kind == StepOpKind::ScaleSlot) {
      continue; // two in-place scalings commute bit-exactly
    }
    const auto touches = [](const StepOp& o) {
      std::vector<int> t = stepReadSlots(o);
      t.push_back(o.dst);
      return t;
    };
    const std::vector<int> tx = touches(x);
    const std::vector<int> ty = touches(y);
    const bool conflict =
        std::find(ty.begin(), ty.end(), x.dst) != ty.end() ||
        std::find(tx.begin(), tx.end(), y.dst) != tx.end();
    if (!conflict) {
      continue;
    }
    cand.push_back(i);
  }
  if (cand.empty()) {
    mut.what = "reorderStepOps: no conflicting adjacent pair";
    return mut;
  }
  const std::size_t i = cand[seed % cand.size()];
  std::swap(mut.prog.ops[i], mut.prog.ops[i + 1]);
  mut.useReference = true;
  mut.valid = true;
  mut.witnessOp = static_cast<int>(i);
  // The hoisted op (originally ops[i+1]) fires ReadBeforeWrite when any
  // layer it now reads was never yet written (a stage temp's interior, or
  // ghost layers whose exchange it just jumped ahead of); otherwise the
  // lockstep sees the two runs write different values at the swap point.
  const std::vector<int> u0 = stepUninitFrom(prog, i);
  bool rbw = false;
  for (const int r : stepReadSlots(prog.ops[i + 1])) {
    rbw = rbw ||
          u0[static_cast<std::size_t>(r)] <= stepReadDepth(prog.ops[i + 1]);
  }
  mut.expect =
      rbw ? StepDiagKind::ReadBeforeWrite : StepDiagKind::ValueMismatch;
  mut.what = "swapped adjacent ops " + std::to_string(i) + " and " +
             std::to_string(i + 1) + " ('" +
             prog.slotName(prog.ops[i].dst) + "' / '" +
             prog.slotName(prog.ops[i + 1].dst) + "')";
  return mut;
}

StepMutation skewStepCoeff(const core::StepProgram& prog,
                           std::uint64_t seed) {
  StepMutation mut;
  mut.prog = prog;
  mut.reference = prog;
  std::vector<std::size_t> cand;
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    const StepOpKind k = prog.ops[i].kind;
    if ((k == StepOpKind::AxpySlot || k == StepOpKind::ScaleSlot) &&
        prog.ops[i].scale != 0.0) {
      cand.push_back(i);
    }
  }
  if (cand.empty()) {
    mut.what = "skewStepCoeff: no combine coefficient to skew";
    return mut;
  }
  const std::size_t i = cand[seed % cand.size()];
  mut.prog.ops[i].scale *= 1.0 + 1e-12;
  mut.useReference = true;
  mut.valid = true;
  mut.expect = StepDiagKind::ValueMismatch;
  mut.witnessOp = static_cast<int>(i);
  mut.what = "combine coefficient skewed at " + stepOpWhat(prog, i);
  return mut;
}

} // namespace fluxdiv::analysis::mutate
