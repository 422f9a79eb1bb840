#include "analysis/stepcheck.hpp"

#include <algorithm>
#include <climits>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/costmodel.hpp"
#include "kernels/footprint.hpp"

namespace fluxdiv::analysis {

using core::StepFuse;
using core::StepHaloPlan;
using core::StepOp;
using core::StepOpKind;
using core::StepProgram;
using grid::Real;

namespace {

constexpr int kG = kernels::kNumGhost;
constexpr int kBottom = INT_MIN / 4; ///< "-infinity" layer sentinel

// ---------------------------------------------------------------------------
// Provenance expressions: a hash-consed DAG over (slot, op) generators.
// An expression id denotes a position-parametric value function — "the
// value this construction places at cell x" — so two runs writing the
// same id at the same layer provably hold bit-identical values (every
// node kind maps equal inputs to equal outputs with the same arithmetic,
// in the same order; nothing is reassociated).

enum class ExKind : std::uint8_t {
  Init,     ///< slot's initial valid content (slot 0: the solution u)
  Uninit,   ///< stage temporary never written (reading it is S2's RBW)
  Stale,    ///< allocated ghost layer no exchange has filled (garbage)
  Rhs,      ///< RHS stencil over a window holding one uniform field
  MixedRhs, ///< RHS stencil over a window straddling several fields
  BCFill,   ///< physical-BC ghost derived from the mirrored interior
  Axpy,     ///< a + coeff * b
  Scale,    ///< coeff * a
};

const char* exKindName(ExKind k) {
  switch (k) {
  case ExKind::Init: return "init";
  case ExKind::Uninit: return "uninit";
  case ExKind::Stale: return "stale-ghost";
  case ExKind::Rhs: return "rhs";
  case ExKind::MixedRhs: return "mixed-rhs";
  case ExKind::BCFill: return "bc-fill";
  case ExKind::Axpy: return "axpy";
  case ExKind::Scale: return "scale";
  }
  return "?";
}

struct ExNode {
  ExKind kind = ExKind::Init;
  int slot = -1;          ///< Init / Uninit / Stale
  int a = -1;             ///< child (Rhs/BCFill/Axpy/Scale)
  int b = -1;             ///< second child (Axpy)
  Real coeff = 0.0;       ///< Axpy / Scale
  /// MixedRhs: the window's field profile as (upper layer offset relative
  /// to the evaluated cell's layer, expr) pairs, ascending, last offset
  /// +kG. Relative keying makes the node independent of which absolute
  /// layer it was built for, so plan and eager runs intern identically.
  std::vector<std::pair<int, int>> win;
  int op = -1; ///< creating op index — witness metadata, NOT hashed
};

class ExprTable {
public:
  int intern(ExNode n) {
    std::string key;
    key.reserve(32 + n.win.size() * 8);
    const auto put = [&key](const void* p, std::size_t len) {
      key.append(static_cast<const char*>(p), len);
    };
    const auto puti = [&](int v) { put(&v, sizeof v); };
    puti(static_cast<int>(n.kind));
    puti(n.slot);
    puti(n.a);
    puti(n.b);
    put(&n.coeff, sizeof n.coeff);
    for (const auto& [up, e] : n.win) {
      puti(up);
      puti(e);
    }
    const auto [it, fresh] =
        index_.try_emplace(std::move(key), static_cast<int>(nodes_.size()));
    if (fresh) {
      nodes_.push_back(std::move(n));
    }
    return it->second;
  }

  [[nodiscard]] const ExNode& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  int init(int slot) { return leaf(ExKind::Init, slot); }
  int uninit(int slot) { return leaf(ExKind::Uninit, slot); }
  int stale(int slot) { return leaf(ExKind::Stale, slot); }

private:
  int leaf(ExKind k, int slot) {
    ExNode n;
    n.kind = k;
    n.slot = slot;
    return intern(std::move(n));
  }

  std::vector<ExNode> nodes_;
  std::unordered_map<std::string, int> index_;
};

// ---------------------------------------------------------------------------
// Per-slot symbolic state: ascending layer bands. Band i covers layers
// (band[i-1].upTo, band[i].upTo]; band 0 reaches down to -infinity; the
// last band's upTo is the slot's storage depth. Layer L >= 1 is ghost
// depth L (L-inf); L <= 0 is interior distance -L from the valid-region
// boundary.

struct Band {
  int upTo = 0;
  int expr = -1;
  int writer = -1; ///< op that wrote the band; -1 = initial content
};
using Bands = std::vector<Band>;

void normalize(Bands& b) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (out > 0 && b[out - 1].expr == b[i].expr &&
        b[out - 1].writer == b[i].writer) {
      b[out - 1].upTo = b[i].upTo;
    } else {
      b[out++] = b[i];
    }
  }
  b.resize(out);
}

[[nodiscard]] std::size_t bandAt(const Bands& b, int layer) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (layer <= b[i].upTo) {
      return i;
    }
  }
  return b.size() - 1; // callers guard layer <= storage depth
}

[[nodiscard]] int exprAt(const Bands& b, int layer) {
  return b[bandAt(b, layer)].expr;
}

/// Replace all layers <= w with `part` (whose last upTo must be w),
/// keeping the old content above w.
void writeUpTo(Bands& b, int w, Bands part) {
  for (const Band& band : b) {
    if (band.upTo > w) {
      part.push_back(band);
    }
  }
  b = std::move(part);
  normalize(b);
}

/// Replace layers [lo, hi] with `part` (upTos spanning exactly lo..hi),
/// keeping old content below lo and above hi.
void overlay(Bands& b, int lo, int hi, const Bands& part) {
  Bands out;
  for (const Band& band : b) {
    if (band.upTo < lo) {
      out.push_back(band);
    }
  }
  // The old band straddling lo must still end at lo-1 below the overlay.
  if (out.empty() || out.back().upTo != lo - 1) {
    const std::size_t i = bandAt(b, lo - 1);
    out.push_back({lo - 1, b[i].expr, b[i].writer});
  }
  out.insert(out.end(), part.begin(), part.end());
  for (const Band& band : b) {
    if (band.upTo > hi) {
      out.push_back(band);
    }
  }
  b = std::move(out);
  normalize(b);
}

// ---------------------------------------------------------------------------
// The abstract machine: one per run (fuse-plan side and eager side), both
// interning into one shared ExprTable.

struct Machine {
  ExprTable* tab = nullptr;
  int depth = kG; ///< storage depth every slot is banded to
  std::vector<Bands> slots;
  /// Plan-side only: per-op "some later op read my written value".
  std::vector<char>* consumed = nullptr;
  std::vector<StepDiagnostic>* diags = nullptr; ///< plan-side RBW sink
  const StepProgram* prog = nullptr;

  void reset(int nSlots, int d) {
    depth = d;
    slots.assign(static_cast<std::size_t>(nSlots), {});
    for (int s = 0; s < nSlots; ++s) {
      Bands& b = slots[static_cast<std::size_t>(s)];
      if (s == 0) {
        b.push_back({0, tab->init(0), -1});
        b.push_back({depth, tab->stale(0), -1});
      } else {
        b.push_back({depth, tab->uninit(s), -1});
      }
    }
  }

  Bands& slot(int s) { return slots[static_cast<std::size_t>(s)]; }

  /// Mark writers of bands intersecting [lo, hi] consumed; report a
  /// ReadBeforeWrite the first time `op` reads an Uninit band.
  void consume(int s, int lo, int hi, int op) {
    bool reported = false;
    const Bands& b = slot(s);
    int prevUp = kBottom;
    for (const Band& band : b) {
      const bool intersects = band.upTo >= lo && prevUp < hi;
      prevUp = band.upTo;
      if (!intersects) {
        continue;
      }
      if (consumed != nullptr && band.writer >= 0) {
        (*consumed)[static_cast<std::size_t>(band.writer)] = 1;
      }
      if (diags != nullptr && !reported &&
          tab->node(band.expr).kind == ExKind::Uninit) {
        reported = true;
        StepDiagnostic d;
        d.kind = StepDiagKind::ReadBeforeWrite;
        d.op = op;
        d.slot = s;
        d.layer = std::min(hi, band.upTo);
        d.detail = "reads " + std::string(exKindName(ExKind::Uninit)) +
                   " slot '" + slotName(s) + "'";
        diags->push_back(std::move(d));
      }
    }
  }

  [[nodiscard]] std::string slotName(int s) const {
    if (prog != nullptr &&
        static_cast<std::size_t>(s) < prog->slotNames.size()) {
      return prog->slotName(s);
    }
    return "slot" + std::to_string(s);
  }

  /// Window field profile for an RHS evaluated at layer L: the source's
  /// expr-only band structure over [L-kG, L+kG], offsets relative to L.
  [[nodiscard]] std::vector<std::pair<int, int>> window(const Bands& src,
                                                        int layer) const {
    std::vector<std::pair<int, int>> rel;
    int prevUp = kBottom;
    for (const Band& band : src) {
      const int lo = std::max(prevUp + 1, layer - kG);
      const int hi = std::min(band.upTo, layer + kG);
      prevUp = band.upTo;
      if (lo > hi) {
        continue;
      }
      if (!rel.empty() && rel.back().second == band.expr) {
        rel.back().first = hi - layer;
      } else {
        rel.emplace_back(hi - layer, band.expr);
      }
    }
    return rel;
  }

  void applyExchange(int s, int w, int op) {
    if (w <= 0) {
      return; // dropped (-1) or zero layers: nothing moves
    }
    consume(s, 1 - w, 0, op);
    Bands part;
    const Bands& cur = slot(s);
    for (int layer = 1; layer <= w; ++layer) {
      // Ghost depth L holds what the neighbor's valid cells hold at
      // interior distance L-1 from their own boundary: the mirror.
      part.push_back({layer, exprAt(cur, 1 - layer), op});
    }
    overlay(slot(s), 1, w, part);
  }

  void applyBoundaryFill(int s, int op) {
    consume(s, 1 - kG, 0, op);
    Bands part;
    const Bands& cur = slot(s);
    for (int layer = 1; layer <= kG; ++layer) {
      ExNode n;
      n.kind = ExKind::BCFill;
      n.a = exprAt(cur, 1 - layer);
      n.op = op;
      part.push_back({layer, tab->intern(std::move(n)), op});
    }
    overlay(slot(s), 1, kG, part);
  }

  void applyRhs(int src, int dst, int w, int op) {
    consume(src, kBottom, w + kG, op);
    const Bands& in = slot(src);
    Bands out;
    const int bottom = std::min(in.front().upTo - kG, w);
    {
      ExNode n;
      n.kind = ExKind::Rhs;
      n.a = in.front().expr;
      n.op = op;
      out.push_back({bottom, tab->intern(std::move(n)), op});
    }
    for (int layer = bottom + 1; layer <= w; ++layer) {
      auto rel = window(in, layer);
      ExNode n;
      if (rel.size() == 1) {
        n.kind = ExKind::Rhs;
        n.a = rel.front().second;
      } else {
        n.kind = ExKind::MixedRhs;
        n.win = std::move(rel);
      }
      n.op = op;
      out.push_back({layer, tab->intern(std::move(n)), op});
    }
    writeUpTo(slot(dst), w, std::move(out));
  }

  void applyCombine(const StepOp& sop, int w, int op) {
    const int dst = sop.dst;
    const int src = sop.src;
    if (sop.kind != StepOpKind::ScaleSlot) {
      consume(src, kBottom, w, op);
    }
    if (sop.kind != StepOpKind::CopySlot) {
      consume(dst, kBottom, w, op); // axpy/scale read-modify their dst;
                                    // copy overwrites without reading, so
                                    // an overwritten-unread store stays
                                    // dead for S2
    }
    const Bands& a = slot(dst);
    const Bands& b = slot(src);
    if (sop.kind == StepOpKind::CopySlot) {
      Bands out;
      int prevUp = kBottom;
      for (const Band& band : b) {
        if (prevUp >= w) {
          break;
        }
        out.push_back({std::min(band.upTo, w), band.expr, op});
        prevUp = band.upTo;
      }
      writeUpTo(slot(dst), w, std::move(out));
      return;
    }
    Bands out;
    const int bottom = std::min({a.front().upTo, b.front().upTo, w});
    const auto make = [&](int layer) {
      ExNode n;
      if (sop.kind == StepOpKind::AxpySlot) {
        n.kind = ExKind::Axpy;
        n.a = exprAt(a, layer);
        n.b = exprAt(b, layer);
      } else {
        n.kind = ExKind::Scale;
        n.a = exprAt(a, layer);
      }
      n.coeff = sop.scale;
      n.op = op;
      return tab->intern(std::move(n));
    };
    out.push_back({bottom, make(bottom), op});
    for (int layer = bottom + 1; layer <= w; ++layer) {
      out.push_back({layer, make(layer), op});
    }
    writeUpTo(slot(dst), w, std::move(out));
  }

  /// Execute op `i` at plan width `w`.
  void apply(const StepOp& sop, int w, int i) {
    switch (sop.kind) {
    case StepOpKind::Exchange:
      applyExchange(sop.dst, w, i);
      break;
    case StepOpKind::BoundaryFill:
      if (w >= 0) {
        applyBoundaryFill(sop.dst, i);
      }
      break;
    case StepOpKind::RhsEval:
      applyRhs(sop.src, sop.dst, w, i);
      break;
    case StepOpKind::CopySlot:
    case StepOpKind::AxpySlot:
    case StepOpKind::ScaleSlot:
      applyCombine(sop, w, i);
      break;
    }
  }

  /// Mark the program's surviving output — the solution slot's interior —
  /// as consumed, so its producing chain is live by definition.
  void consumeOutput() { consume(0, kBottom, 0, -1); }
};

/// Deepest layer any band of `a` or `b` differs at over (-inf, 0], or
/// kBottom when the interiors agree. Piecewise-constant: checking every
/// band boundary <= 0 of either side (plus 0 itself) covers all pieces.
int divergingLayer(const Bands& a, const Bands& b) {
  std::vector<int> probes{0};
  for (const Band& band : a) {
    if (band.upTo < 0) {
      probes.push_back(band.upTo);
    }
  }
  for (const Band& band : b) {
    if (band.upTo < 0) {
      probes.push_back(band.upTo);
    }
  }
  std::sort(probes.begin(), probes.end(), std::greater<>());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  for (const int layer : probes) {
    if (exprAt(a, layer) != exprAt(b, layer)) {
      return layer;
    }
  }
  // Bottom piece: below every recorded boundary.
  const int bottom = std::min(a.front().upTo, b.front().upTo) - 1;
  if (bottom <= 0 && exprAt(a, bottom) != exprAt(b, bottom)) {
    return bottom;
  }
  return kBottom;
}

grid::IntVect witnessCell(int layer, int boxSize) {
  const int d = std::min(-layer, std::max(boxSize - 1, 0));
  return {d, d, d};
}

/// Storage depth the plan implies: every kept width fits, every RHS
/// source read (width + kG) fits, and at least the declared depth / the
/// base ghost width.
int storageDepth(const StepProgram& prog, const StepHaloPlan& plan) {
  int d = std::max(plan.depth, kG);
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    const int w = i < plan.width.size() ? plan.width[i] : 0;
    if (w < 0) {
      continue;
    }
    d = std::max(d, prog.ops[i].kind == StepOpKind::RhsEval ? w + kG : w);
  }
  return d;
}

std::string opLabel(const StepProgram& prog, int i) {
  if (i < 0 || static_cast<std::size_t>(i) >= prog.ops.size()) {
    return "op " + std::to_string(i);
  }
  const StepOp& op = prog.ops[static_cast<std::size_t>(i)];
  const auto name = [&](int s) {
    return static_cast<std::size_t>(s) < prog.slotNames.size()
               ? prog.slotName(s)
               : "slot" + std::to_string(s);
  };
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

/// One lockstep S1 interpretation: `prog` under `plan` against `ref`
/// under `ref`'s eager plan. Returns diagnostics; fills
/// `consumed`/`advDiags` only when tracking liveness (full mode).
struct RunOutcome {
  std::vector<StepDiagnostic> diagnostics;
  std::vector<char> consumed;
  Machine plan; ///< final plan-side state (liveness post-pass)
};

RunOutcome runLockstep(const StepProgram& prog, const StepHaloPlan& plan,
                       const StepProgram& ref, const StepCheckOptions& opts,
                       ExprTable& tab, bool track) {
  const StepHaloPlan eager = core::planStepHalos(ref, StepFuse::Eager);
  const int depth =
      std::max(storageDepth(prog, plan), storageDepth(ref, eager));

  RunOutcome out;
  out.consumed.assign(prog.ops.size(), 0);

  Machine& a = out.plan;
  a.tab = &tab;
  a.prog = &prog;
  if (track) {
    a.consumed = &out.consumed;
    a.diags = &out.diagnostics;
  }
  a.reset(prog.nSlots, depth);

  Machine b;
  b.tab = &tab;
  b.prog = &ref;
  b.reset(ref.nSlots, depth);

  const bool lockstep = prog.ops.size() == ref.ops.size();
  const std::size_t n = prog.ops.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = out.diagnostics.size();
    a.apply(prog.ops[i], plan.width[i], static_cast<int>(i));
    if (!lockstep) {
      continue;
    }
    b.apply(ref.ops[i], eager.width[i], static_cast<int>(i));
    if (out.diagnostics.size() > before) {
      return out; // the op's own read-before-write is the minimal witness
    }
    // S1, incrementally: the first op whose written interior diverges
    // from the eager reference is the minimal witness.
    for (const int s : {prog.ops[i].dst, ref.ops[i].dst}) {
      if (s >= prog.nSlots || s >= ref.nSlots) {
        continue;
      }
      const int layer = divergingLayer(a.slot(s), b.slot(s));
      if (layer == kBottom) {
        if (s == prog.ops[i].dst && s == ref.ops[i].dst) {
          break; // same dst checked once
        }
        continue;
      }
      StepDiagnostic d;
      d.kind = StepDiagKind::ValueMismatch;
      d.op = static_cast<int>(i);
      d.slot = s;
      d.layer = layer;
      d.cell = witnessCell(layer, opts.boxSize);
      d.detail = opLabel(prog, static_cast<int>(i)) + ": plan writes " +
                 std::string(exKindName(
                     tab.node(exprAt(a.slot(s), layer)).kind)) +
                 " where eager holds " +
                 std::string(exKindName(
                     tab.node(exprAt(b.slot(s), layer)).kind)) +
                 " in slot '" + a.slotName(s) + "'";
      out.diagnostics.push_back(std::move(d));
      return out;
    }
  }
  // Final safety net (and the only comparison when op counts differ):
  // every slot's interior must agree at the end.
  const int nSlots = std::min(prog.nSlots, ref.nSlots);
  for (int s = 0; s < nSlots; ++s) {
    const int layer = divergingLayer(a.slot(s), b.slot(s));
    if (layer == kBottom) {
      continue;
    }
    StepDiagnostic d;
    d.kind = StepDiagKind::ValueMismatch;
    d.op = a.slot(s)[bandAt(a.slot(s), layer)].writer;
    d.slot = s;
    d.layer = layer;
    d.cell = witnessCell(layer, opts.boxSize);
    d.detail = "final interior of slot '" + a.slotName(s) +
               "' diverges from eager";
    out.diagnostics.push_back(std::move(d));
    return out;
  }
  return out;
}

long long extraCells(int boxSize, int nBoxes, int w, int minW) {
  const auto vol = [boxSize](int width) {
    const long long side = boxSize + 2LL * width;
    return side * side * side;
  };
  return (vol(w) - vol(minW)) * nBoxes;
}

const char* stepDiagKindName(StepDiagKind kind) {
  switch (kind) {
  case StepDiagKind::ValueMismatch: return "value-mismatch";
  case StepDiagKind::ReadBeforeWrite: return "read-before-write";
  case StepDiagKind::StorageExceeded: return "storage-exceeded";
  }
  return "?";
}

const char* stepNoteKindName(StepNoteKind kind) {
  switch (kind) {
  case StepNoteKind::DeadStore: return "dead-store";
  case StepNoteKind::DeadExchange: return "dead-exchange";
  case StepNoteKind::OverDeepHalo: return "over-deep-halo";
  }
  return "?";
}

} // namespace

std::string StepDiagnostic::message() const {
  std::string msg = "[";
  msg += stepDiagKindName(kind);
  msg += "] op ";
  msg += std::to_string(op);
  msg += ", slot ";
  msg += std::to_string(slot);
  msg += ", layer ";
  msg += std::to_string(layer);
  msg += ", witness cell (" + std::to_string(cell[0]) + "," +
         std::to_string(cell[1]) + "," + std::to_string(cell[2]) + ")";
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
  case StepNoteKind::OverDeepHalo:
    msg += ": width " + std::to_string(width) +
           " exceeds the proven-minimal " + std::to_string(minWidth) +
           " (+" + std::to_string(recomputeCells) +
           " recomputed cells per run)";
    break;
  case StepNoteKind::DeadStore:
    msg += ": written values are never read";
    break;
  case StepNoteKind::DeadExchange:
    msg += ": filled ghost layers are never read";
    break;
  }
  return msg;
}

StepCheckReport checkStepProgram(const StepProgram& prog, StepFuse fuse,
                                 const StepHaloPlan& plan,
                                 const StepCheckOptions& opts) {
  StepCheckReport report;
  report.fuse = fuse;
  report.planDepth = plan.depth;
  const StepProgram& ref =
      opts.reference != nullptr ? *opts.reference : prog;

  ExprTable tab;
  RunOutcome run = runLockstep(prog, plan, ref, opts, tab, /*track=*/true);
  report.diagnostics = std::move(run.diagnostics);

  if (report.ok()) {
    // S2 advisories: ops whose written values nothing ever consumed.
    run.plan.consumeOutput();
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      if (plan.width[i] < 0 || run.consumed[i] != 0) {
        continue;
      }
      const StepOp& op = prog.ops[i];
      StepAdvisory adv;
      adv.op = static_cast<int>(i);
      adv.slot = op.dst;
      adv.width = plan.width[i];
      adv.kind = (op.kind == StepOpKind::Exchange ||
                  op.kind == StepOpKind::BoundaryFill)
                     ? StepNoteKind::DeadExchange
                     : StepNoteKind::DeadStore;
      report.advisories.push_back(adv);
    }
  }

  if (report.ok() && opts.checkTightness) {
    // S3: every kept positive width must be minimal — width-1 breaks S1.
    StepCheckOptions sub = opts;
    sub.checkTightness = false;
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      const int w = plan.width[i];
      if (w <= 0) {
        continue;
      }
      int minW = w;
      for (int t = w - 1; t >= 0; --t) {
        StepHaloPlan trial = plan;
        trial.width[i] = t;
        ExprTable trialTab;
        const RunOutcome probe =
            runLockstep(prog, trial, ref, sub, trialTab, /*track=*/true);
        if (!probe.diagnostics.empty()) {
          break; // t provably breaks S1/S2: w = t+1 is necessary
        }
        minW = t;
      }
      if (minW < w) {
        StepAdvisory adv;
        adv.kind = StepNoteKind::OverDeepHalo;
        adv.op = static_cast<int>(i);
        adv.slot = prog.ops[i].dst;
        adv.width = w;
        adv.minWidth = minW;
        adv.recomputeCells =
            extraCells(opts.boxSize, opts.nBoxes, w, minW);
        report.advisories.push_back(adv);
      }
    }
  }

  report.exprCount = tab.size();
  return report;
}

StepCheckReport checkStepProgram(const StepProgram& prog, StepFuse fuse,
                                 const StepCheckOptions& opts) {
  return checkStepProgram(prog, fuse, core::planStepHalos(prog, fuse),
                          opts);
}

std::vector<CostNote> stepCheckNotes(const StepCheckReport& report,
                                     const StepProgram& prog) {
  std::vector<CostNote> notes;
  for (const StepAdvisory& adv : report.advisories) {
    CostNote note;
    note.kind = adv.kind == StepNoteKind::OverDeepHalo
                    ? CostNoteKind::OverDeepHalo
                    : CostNoteKind::DeadStore;
    note.where = opLabel(prog, adv.op);
    // OverDeepHalo: actual vs proven-minimal width, recompute volume in
    // `fraction`. Dead stores/exchanges: the planned width only.
    note.actualBytes = static_cast<double>(adv.width);
    note.limitBytes = static_cast<double>(adv.minWidth);
    note.fraction = static_cast<double>(adv.recomputeCells);
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
