#include "analysis/stepcheck.hpp"

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/costmodel.hpp"

namespace fluxdiv::analysis {

using core::StepFuse;
using core::StepOp;
using core::StepOpKind;
using core::StepProgram;
using grid::Real;

namespace {

constexpr int kNever = -2;   ///< writer of a stage slot nothing wrote yet
constexpr int kInitial = -1; ///< writer of the solution's initial content

/// What S2 knows of one slot: who wrote its valid region, and who wrote
/// its ghost frame since its last Exchange. The solution (slot 0) starts
/// written everywhere; its ghosts may be stale, which is a value question
/// for the bitwise scheme tests, not a liveness one.
struct SlotWriters {
  int valid = kNever;
  bool framed = false;    ///< some Exchange filled the ghost frame
  std::vector<int> ghost; ///< the last Exchange and BoundaryFills since
};

std::string slotName(const StepProgram& prog, int s) {
  return static_cast<std::size_t>(s) < prog.slotNames.size()
             ? prog.slotName(s)
             : "slot" + std::to_string(s);
}

std::string opLabel(const StepProgram& prog, int i) {
  if (i < 0 || static_cast<std::size_t>(i) >= prog.ops.size()) {
    return "op " + std::to_string(i);
  }
  const StepOp& op = prog.ops[static_cast<std::size_t>(i)];
  const auto name = [&prog](int s) { return slotName(prog, s); };
  std::string what;
  switch (op.kind) {
  case StepOpKind::Exchange: what = "exchange " + name(op.dst); break;
  case StepOpKind::BoundaryFill: what = "bcfill " + name(op.dst); break;
  case StepOpKind::RhsEval:
    what = "rhs " + name(op.src) + " -> " + name(op.dst);
    break;
  case StepOpKind::CopySlot:
    what = "copy " + name(op.src) + " -> " + name(op.dst);
    break;
  case StepOpKind::AxpySlot:
    what = "axpy " + name(op.dst) + " += " + std::to_string(op.scale) +
           " * " + name(op.src);
    break;
  case StepOpKind::ScaleSlot:
    what = "scale " + name(op.dst) + " *= " + std::to_string(op.scale);
    break;
  }
  return "op " + std::to_string(i) + " (" + what + ", step " +
         std::to_string(op.step) + ")";
}

const char* stepNoteKindName(StepNoteKind kind) {
  switch (kind) {
  case StepNoteKind::DeadStore: return "dead-store";
  case StepNoteKind::DeadExchange: return "dead-exchange";
  }
  return "?";
}

} // namespace

std::string StepDiagnostic::message() const {
  std::string msg = "[read-before-write] op " + std::to_string(op) +
                    ", slot " + std::to_string(slot);
  if (!detail.empty()) {
    msg += ": " + detail;
  }
  return msg;
}

std::string StepAdvisory::message() const {
  std::string msg = "[";
  msg += stepNoteKindName(kind);
  msg += "] op ";
  msg += std::to_string(op);
  msg += ", slot ";
  msg += std::to_string(slot);
  switch (kind) {
  case StepNoteKind::DeadStore:
    msg += ": written values are never read";
    break;
  case StepNoteKind::DeadExchange:
    msg += ": filled ghost layers are never read";
    break;
  }
  return msg;
}

StepCheckReport checkStepProgram(const StepProgram& prog) {
  StepCheckReport report;
  std::vector<SlotWriters> slots(static_cast<std::size_t>(prog.nSlots));
  slots[0].valid = kInitial;
  slots[0].framed = true;
  std::vector<char> read(prog.ops.size(), 0);
  const auto slot = [&slots](int s) -> SlotWriters& {
    return slots[static_cast<std::size_t>(s)];
  };
  const auto markRead = [&read](int writer) {
    if (writer >= 0) {
      read[static_cast<std::size_t>(writer)] = 1;
    }
  };
  // Op `i` reads slot `s`'s valid region, and its ghost frame too when
  // `ghosts`: mark their writers read, and report what was never written.
  const auto readSlot = [&](int s, bool ghosts, int i) {
    const SlotWriters& w = slot(s);
    markRead(w.valid);
    const char* unwritten = w.valid == kNever ? "valid region" : nullptr;
    if (ghosts) {
      for (const int g : w.ghost) {
        markRead(g);
      }
      if (unwritten == nullptr && !w.framed) {
        unwritten = "ghost frame";
      }
    }
    if (unwritten != nullptr) {
      report.diagnostics.push_back(
          {i, s, "reads the never-written " + std::string(unwritten) +
                     " of slot '" + slotName(prog, s) + "'"});
    }
  };

  for (std::size_t n = 0; n < prog.ops.size() && report.ok(); ++n) {
    const StepOp& op = prog.ops[n];
    const int i = static_cast<int>(n);
    switch (op.kind) {
    case StepOpKind::Exchange:
      readSlot(op.dst, false, i);
      slot(op.dst).ghost = {i};
      slot(op.dst).framed = true;
      break;
    case StepOpKind::BoundaryFill:
      readSlot(op.dst, false, i);
      slot(op.dst).ghost.push_back(i);
      break;
    case StepOpKind::RhsEval:
      readSlot(op.src, true, i);
      slot(op.dst).valid = i;
      break;
    case StepOpKind::CopySlot: // overwrites dst without reading it
      readSlot(op.src, false, i);
      slot(op.dst).valid = i;
      break;
    case StepOpKind::AxpySlot:
      readSlot(op.src, false, i);
      readSlot(op.dst, false, i);
      slot(op.dst).valid = i;
      break;
    case StepOpKind::ScaleSlot:
      readSlot(op.dst, false, i);
      slot(op.dst).valid = i;
      break;
    }
  }
  if (!report.ok()) {
    return report;
  }
  // The step's output, the solution's valid region, is read by definition.
  markRead(slot(0).valid);
  for (std::size_t n = 0; n < prog.ops.size(); ++n) {
    if (read[n] != 0) {
      continue;
    }
    const StepOp& op = prog.ops[n];
    StepAdvisory adv;
    adv.op = static_cast<int>(n);
    adv.slot = op.dst;
    adv.kind = (op.kind == StepOpKind::Exchange ||
                op.kind == StepOpKind::BoundaryFill)
                   ? StepNoteKind::DeadExchange
                   : StepNoteKind::DeadStore;
    report.advisories.push_back(adv);
  }
  return report;
}

std::vector<CostNote> stepCheckNotes(const StepCheckReport& report,
                                     const StepProgram& prog) {
  std::vector<CostNote> notes;
  for (const StepAdvisory& adv : report.advisories) {
    CostNote note;
    note.kind = CostNoteKind::DeadStore;
    note.where = opLabel(prog, adv.op);
    notes.push_back(note);
  }
  return notes;
}

std::uint64_t stepSignature(const StepProgram& prog, StepFuse fuse,
                            const StepShapeKey& key) {
  std::uint64_t h = 1469598103934665603ULL; // FNV-1a offset basis
  const auto mix = [&h](const void* p, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL; // FNV-1a prime
    }
  };
  const auto mixi = [&](long long v) { mix(&v, sizeof v); };
  const auto mixr = [&](Real v) { mix(&v, sizeof v); };
  mixi(static_cast<long long>(fuse));
  mixi(prog.nSlots);
  mixi(prog.rhsEvals);
  mixi(prog.nSteps);
  mixi(static_cast<long long>(prog.ops.size()));
  for (const StepOp& op : prog.ops) {
    mixi(static_cast<long long>(op.kind));
    mixi(op.dst);
    mixi(op.src);
    mixr(op.scale);
    mixi(op.step);
  }
  for (int d = 0; d < grid::SpaceDim; ++d) {
    mixi(key.domainBox.lo()[d]);
    mixi(key.domainBox.hi()[d]);
    mixi(key.periodic[static_cast<std::size_t>(d)] ? 1 : 0);
    mixi(key.boxSize[d]);
  }
  mixi(key.nGhost);
  mixi(key.nComp);
  mixr(key.invDx);
  mixr(key.dissipation);
  mixi(key.hasBoundary ? 1 : 0);
  return h;
}

std::string stepSignatureHex(std::uint64_t signature) {
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[signature & 0xF];
    signature >>= 4;
  }
  return out;
}

} // namespace fluxdiv::analysis
