#include "analysis/mutate.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace fluxdiv::analysis::mutate {

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
    bool gather = false; ///< a gathered piece, not an exchange write
    std::size_t write = 0;
    Box lost;
    Box shrunk;
    int reader = -1;
    const char* side = "";
  };
  std::vector<Cand> cands;
  for (std::size_t t = 0; t < m.tasks.size(); ++t) {
    const bool gather = !m.tasks[t].exchangeOp;
    const std::vector<TaskAccess>& fills =
        gather ? m.tasks[t].gathers : m.tasks[t].writes;
    for (std::size_t wi = 0; wi < fills.size(); ++wi) {
      const TaskAccess& w = fills[wi];
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
          // The starved reader the checker will name: a gathering task
          // itself, else the lowest-id compute task after the op whose
          // Phi0 read of this box needs a lost cell (tasks are numbered
          // in program order).
          const std::size_t first = gather ? t : t + 1;
          const std::size_t last = gather ? t + 1 : m.tasks.size();
          int reader = -1;
          for (std::size_t r = first; r < last && reader < 0; ++r) {
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
            cands.push_back({static_cast<int>(t), gather, wi, lost, shrunk,
                             reader, side == 0 ? "low" : "high"});
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
  GraphTask& op = out.model.tasks[static_cast<std::size_t>(c.op)];
  (c.gather ? op.gathers : op.writes)[c.write].region = c.shrunk;
  out.expect = DiagnosticKind::ReadUncovered;
  out.taskA = c.reader;
  out.taskB = c.op;
  out.what = std::string(c.gather ? "shrink gathered piece of '"
                                  : "shrink ghost write of '") +
             m.label(c.op) + "' by its " + c.side + " layer (starves '" +
             m.label(c.reader) + "')";
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
// Both step mutations keep only the candidates that make the program read
// a never-written slot, the one fault checkStepProgram reports. The
// prediction restates the step semantics on its own, op by op: every
// compute op writes its destination's whole valid region, only an
// Exchange fills a whole ghost frame, and the solution (slot 0) starts
// written everywhere.

namespace {

using core::StepOp;
using core::StepOpKind;
using core::StepProgram;

/// Whether ops [0, upTo) of `prog` leave op `upTo` reading a slot part
/// nothing wrote: a valid region it reads, or an RHS source's ghost frame.
bool readsUnwritten(const StepProgram& prog, std::size_t upTo) {
  const auto wrote = [&](int slot, bool frame) {
    if (slot == 0) {
      return true;
    }
    for (std::size_t j = 0; j < upTo; ++j) {
      const StepOp& op = prog.ops[j];
      const bool fills = frame ? op.kind == StepOpKind::Exchange
                               : op.kind != StepOpKind::Exchange &&
                                     op.kind != StepOpKind::BoundaryFill;
      if (fills && op.dst == slot) {
        return true;
      }
    }
    return false;
  };
  const StepOp& op = prog.ops[upTo];
  switch (op.kind) {
  case StepOpKind::Exchange:
  case StepOpKind::BoundaryFill:
  case StepOpKind::ScaleSlot:
    return !wrote(op.dst, false);
  case StepOpKind::RhsEval:
    return !wrote(op.src, false) || !wrote(op.src, true);
  case StepOpKind::CopySlot:
    return !wrote(op.src, false);
  case StepOpKind::AxpySlot:
    return !wrote(op.src, false) || !wrote(op.dst, false);
  }
  return false;
}

/// The first op of `prog` that reads a never-written slot part, or -1.
int firstUnwrittenRead(const StepProgram& prog) {
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    if (readsUnwritten(prog, i)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string stepOpWhat(const StepProgram& prog, std::size_t i) {
  const StepOp& op = prog.ops[i];
  return "op " + std::to_string(i) + " ('" + prog.slotName(op.dst) +
         "', step " + std::to_string(op.step) + ")";
}

/// Apply `edit` at every op index of `prog`; keep the edits whose program
/// reads a never-written slot part, and return the seed's pick.
template <typename Edit>
StepMutation pickStepMutation(const StepProgram& prog, std::uint64_t seed,
                              Edit edit) {
  std::vector<StepMutation> cand;
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    StepMutation m;
    m.prog = prog;
    if (!edit(m, i)) {
      continue;
    }
    m.witnessOp = firstUnwrittenRead(m.prog);
    if (m.witnessOp >= 0) {
      m.valid = true;
      cand.push_back(std::move(m));
    }
  }
  if (cand.empty()) {
    StepMutation none;
    none.prog = prog;
    return none;
  }
  return cand[seed % cand.size()];
}

} // namespace

StepMutation dropStepExchange(const core::StepProgram& prog,
                              std::uint64_t seed) {
  StepMutation mut = pickStepMutation(
      prog, seed, [&prog](StepMutation& m, std::size_t i) {
        if (prog.ops[i].kind != StepOpKind::Exchange) {
          return false;
        }
        m.prog.ops.erase(m.prog.ops.begin() + static_cast<std::ptrdiff_t>(i));
        m.what = "dropped exchange " + stepOpWhat(prog, i);
        return true;
      });
  if (!mut.valid) {
    mut.what = "dropStepExchange: no dropped exchange leaves a read unfed";
  }
  return mut;
}

StepMutation reorderStepOps(const core::StepProgram& prog,
                            std::uint64_t seed) {
  StepMutation mut = pickStepMutation(
      prog, seed, [&prog](StepMutation& m, std::size_t i) {
        if (i + 1 >= prog.ops.size()) {
          return false;
        }
        std::swap(m.prog.ops[i], m.prog.ops[i + 1]);
        m.what = "swapped adjacent ops " + std::to_string(i) + " and " +
                 std::to_string(i + 1) + " ('" +
                 prog.slotName(prog.ops[i].dst) + "' / '" +
                 prog.slotName(prog.ops[i + 1].dst) + "')";
        return true;
      });
  if (!mut.valid) {
    mut.what = "reorderStepOps: no swap hoists a read above its write";
  }
  return mut;
}

} // namespace fluxdiv::analysis::mutate
