#include "core/stepgraph.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/commcheck.hpp"
#include "analysis/region.hpp"
#include "analysis/stepcheck.hpp"
#include "analysis/verifygate.hpp"
#include "core/exec_common.hpp"
#include "core/runner.hpp"
#include "core/workspace.hpp"
#include "kernels/footprint.hpp"
#include "kernels/laplacian.hpp"

namespace fluxdiv::core {

using grid::Box;
using grid::FArrayBox;
using grid::IntVect;
using grid::LevelData;
using grid::Real;
using kernels::kNumComp;
using kernels::kNumGhost;

namespace {

/// The layout/physics half of the S4 rebind signature
/// (analysis/stepcheck.hpp) — exactly the capture key fields beyond the
/// program itself.
analysis::StepShapeKey stepShapeKeyOf(const LevelData& u,
                                      const StepRhsSpec& rhs) {
  analysis::StepShapeKey key;
  key.domainBox = u.layout().domain().box();
  for (int d = 0; d < grid::SpaceDim; ++d) {
    key.periodic[static_cast<std::size_t>(d)] =
        u.layout().domain().isPeriodic(d);
  }
  key.boxSize = u.layout().boxSize();
  key.nGhost = u.nGhost();
  key.nComp = u.nComp();
  key.invDx = rhs.invDx;
  key.dissipation = rhs.dissipation;
  key.hasBoundary = rhs.boundary != nullptr;
  return key;
}

#ifdef FLUXDIV_VERIFY
/// Whole-step gate: before the first capture of each distinct
/// (program, layout, physics) signature, prove the program live
/// (stepcheck S2: no op reads a never-written stage slot).
void verifyStepOnce(const StepProgram& prog, const LevelData& u,
                    const StepRhsSpec& rhs) {
  static analysis::VerifyGate gate;
  const std::uint64_t sig = analysis::stepSignature(
      prog, StepFuse::Fused, stepShapeKeyOf(u, rhs));
  gate.verifyOnce(analysis::stepSignatureHex(sig), [&prog] {
    analysis::throwOnDiagnostics(
        "StepGraphExecutor: step-program verification failed",
        analysis::checkStepProgram(prog).diagnostics);
  });
}

/// Exchange plans are pure functions of the domain (box and periodicity),
/// the box size, and the ghost depth, so this key identifies one plan.
std::string levelShapeKey(const LevelData& level) {
  const grid::ProblemDomain& dom = level.layout().domain();
  std::string key;
  for (const IntVect& v :
       {dom.box().lo(), dom.box().hi(), level.layout().boxSize()}) {
    for (int d = 0; d < grid::SpaceDim; ++d) {
      key += std::to_string(v[d]) + ',';
    }
  }
  for (int d = 0; d < grid::SpaceDim; ++d) {
    key += dom.isPeriodic(d) ? 'p' : 'w';
  }
  return key + ";g" + std::to_string(level.nGhost());
}

/// Exchange-plan gate: before a capture lowers the exchanges of a
/// slot level, prove the level's exchange plan exact and matched
/// (analysis/commcheck). Each distinct (layout, ghost depth) is proven
/// once per process.
void verifyCommOnce(const LevelData& level) {
  static analysis::VerifyGate gate;
  if (level.size() == 0 || level.nGhost() <= 0) {
    return;
  }
  gate.verifyOnce(levelShapeKey(level), [&level] {
    const analysis::CommPlanModel model =
        analysis::buildCommPlanModel(level.layout(), level.copier());
    analysis::throwOnDiagnostics(
        "StepGraphExecutor: exchange-plan verification failed for '" +
            model.name + "'",
        analysis::checkCommPlan(model).diagnostics);
  });
}
#endif

/// Executable graph + analysis mirror + dependence tracker for one
/// capture. addTask() keeps the graph and the model in lockstep (same
/// ids, same labels, built from the same calls, so the model cannot drift
/// from what runs); access() records a footprint in the model AND derives
/// the dependency edges: any earlier access of the same (slot, box) with
/// a component/region overlap where either side writes becomes an edge.
/// Program order makes every derived edge point forward, so the graph is
/// acyclic by construction (G1 re-proves it independently).
///
/// A write drops the part of every earlier log entry it covers (an entry
/// it contains goes entirely; a partly covered one keeps its uncovered
/// rest). Any later access that conflicts with a dropped cell overlaps
/// the covering write too, so it is ordered after that write, which is
/// already ordered after the entry: happens-before is unchanged, only
/// the transitively implied edges go. Without this, each task of a
/// multi-stage (or multi-step) capture would carry an edge to every
/// conflicting access of all earlier stages, and the edge count would
/// grow quadratically with the captured steps instead of linearly.
class Lowering {
public:
  Lowering(std::string name, const LevelData& u) {
    model.name = std::move(name);
    model.ghostsPreExchanged = false;
    for (std::size_t b = 0; b < u.size(); ++b) {
      model.validBoxes.push_back(u.validBox(b));
    }
  }

  int addTask(TaskGraph::Fn fn, int owner, std::string label,
              bool exchangeOp = false, bool orderingOnly = false) {
    const int id = graph.addTask(std::move(fn), owner, label);
    model.addTask(std::move(label));
    model.tasks.back().exchangeOp = exchangeOp;
    model.tasks.back().orderingOnly = orderingOnly;
    preds_.emplace_back();
    return id;
  }

  void access(int task, int slot, std::size_t box, const Box& region,
              int nc, bool write) {
    if (region.empty()) {
      return;
    }
    auto& entries = log_[{slot, box}];
    for (const Entry& e : entries) {
      if (e.task == task || (!write && !e.write) ||
          !e.region.intersects(region)) {
        continue;
      }
      if (preds_[static_cast<std::size_t>(task)].insert(e.task).second) {
        graph.addDep(e.task, task);
        model.addEdge(e.task, task);
      }
    }
    if (write) {
      const std::size_t n = entries.size();
      for (std::size_t i = 0; i < n; ++i) {
        const Entry e = entries[i];
        if (!e.region.intersects(region)) {
          continue;
        }
        for (const Box& rest : analysis::boxDiff(e.region, region)) {
          entries.push_back({e.task, rest, e.write});
        }
        entries[i].task = -1; // covered part dropped, rest re-logged
      }
      std::erase_if(entries, [](const Entry& e) { return e.task < 0; });
    }
    entries.push_back({task, region, write});
    analysis::TaskAccess a;
    a.field = analysis::FieldId::Phi0;
    a.box = box;
    a.slot = slot;
    a.comp0 = 0;
    a.nComp = nc;
    a.region = region;
    auto& t = model.tasks[static_cast<std::size_t>(task)];
    (write ? t.writes : t.reads).push_back(a);
  }

  /// A gathering RHS task's halo (lowerRhsEval): the model reads its
  /// stencil footprint `reads` of (slot, box), after the task filled the
  /// ghost part of it with `pieces` in its own buffer. Neither touches the
  /// slot's storage, so neither is logged: the task's dependences come from
  /// its reads of the valid cells it copies.
  void modelHalo(int task, int slot, std::size_t box,
                 const std::vector<Box>& reads,
                 const std::vector<grid::CopyOp>& pieces, int nc) {
    auto& t = model.tasks[static_cast<std::size_t>(task)];
    analysis::TaskAccess a;
    a.field = analysis::FieldId::Phi0;
    a.box = box;
    a.slot = slot;
    a.nComp = nc;
    for (const Box& r : reads) {
      a.region = r;
      t.reads.push_back(a);
    }
    for (const grid::CopyOp& p : pieces) {
      a.region = p.destRegion;
      t.gathers.push_back(a);
    }
  }

  TaskGraph graph;
  analysis::TaskGraphModel model;
  /// RHS-output (slot, box) pairs whose shadow epochs run() re-arms and
  /// checks. Recorded symbolically (not as FArrayBox*) so a rebind to a
  /// reallocated LevelData needs no epoch-list rebuild.
  std::vector<std::pair<int, std::size_t>> epochTargets;
  std::vector<bool> rhsWritten;      ///< per slot, within this dispatch

private:
  struct Entry {
    int task;
    Box region;
    bool write;
  };
  std::map<std::pair<int, std::size_t>, std::vector<Entry>> log_;
  std::vector<std::set<int>> preds_;
};

/// Cells along x that one gathering RHS task sweeps at most. On 512 boxes
/// of 16^3 at 4 threads, 64 beat 128 (the x extent of a 128^3 box's
/// logical tiles) and 32 did not beat 64 (docs/perf.md, "Gather runs
/// along x").
constexpr int kGatherRunCells = 64;

/// One box's part of an RHS task's region: a task's output rows split at
/// the boxes it covers. A tile task has one segment; a gathering run task
/// (gatherRuns) has one per member box.
struct RhsSegment {
  std::size_t b;
  Box region;
};

/// One RHS task of an RhsEval: the region its sweep covers, the boxes
/// that region covers (its segments, ascending in x), and under the gather
/// lowering the halo pieces it copies.
struct RhsTask {
  Box region;
  std::vector<RhsSegment> segments;
  std::vector<grid::CopyOp> pieces;
  int owner = 0;
  std::string name; ///< e.g. "box3 tile2" or "box8-15 all"
};

/// Everything the lowering needs about the capture being built. `tab` is the
/// capture's runtime slot table: the lowering reads layouts, copiers and
/// valid boxes through it, and task lambdas capture it and dereference it
/// on every execution, so rebinding an entry (layout-keyed reuse after the
/// solution is reallocated) retargets every task without re-lowering.
struct LowerEnv {
  const VariantConfig& cfg;
  int nThreads;
  const StepProgram& prog;
  const StepRhsSpec& rhs;
  LevelData* const* tab; ///< program slot -> storage (Capture-owned)
  LevelPolicy policy;
  /// The gather lowering (gathersHalos): each RHS task gathers the halo of
  /// one run of boxes (`runs`, gatherRuns), the model reads `halo[b]` for
  /// box b (haloPieces), and Exchange ops lower to no task.
  bool gather = false;
  std::vector<std::vector<grid::CopyOp>> halo;
  std::vector<RhsTask> runs;

  [[nodiscard]] int ownerOf(std::size_t b) const {
    return static_cast<int>(b % static_cast<std::size_t>(nThreads));
  }
  [[nodiscard]] std::string stepTag(const StepOp& op) const {
    return prog.nSteps > 1 ? " t" + std::to_string(op.step) : std::string();
  }
};

struct NamedRegion {
  Box region;
  std::string tag;
};

/// Tag of tile `t` of `n`: `single` when the box is one tile.
std::string tileTag(const std::string& base, const std::string& single,
                    std::size_t t, std::size_t n) {
  return n == 1 ? single : base + std::to_string(t);
}

/// Task decomposition of one RHS evaluation over one box. The sequential
/// policy runs the box as one task, mirroring the seed loop's
/// granularity. Otherwise each of the box's logical tiles (logicalTiles)
/// is one whole-tile task; the lowering's access log makes it wait for
/// exactly the exchange copies its read footprint overlaps. The pieces
/// always partition the box, and every family accumulates each cell's
/// flux differences in the same per-cell order, so any decomposition is
/// bit-identical.
std::vector<NamedRegion> rhsRegions(const LowerEnv& env, const Box& valid) {
  std::vector<NamedRegion> out;
  if (env.policy == LevelPolicy::BoxSequential) {
    out.push_back({valid, "all"});
    return out;
  }
  const std::vector<Box> tiles = logicalTiles(valid);
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    out.push_back({tiles[t], tileTag("tile", "all", t, tiles.size())});
  }
  return out;
}

/// Task decomposition of one stage combine (copy/axpy/scale) over one
/// box: one task per logical tile, or one whole-box task under the
/// sequential policy.
std::vector<NamedRegion> combineRegions(const LowerEnv& env,
                                        const Box& valid) {
  std::vector<NamedRegion> out;
  if (env.policy == LevelPolicy::BoxSequential) {
    out.push_back({valid, ""});
    return out;
  }
  const std::vector<Box> tiles = logicalTiles(valid);
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    out.push_back({tiles[t], tileTag(" tile", "", t, tiles.size())});
  }
  return out;
}

bool isCombine(StepOpKind kind) {
  return kind == StepOpKind::CopySlot || kind == StepOpKind::AxpySlot ||
         kind == StepOpKind::ScaleSlot;
}

/// One stage combine on one x-row of n values: dst = src, dst += scale *
/// src, or dst *= scale (src unused) — the grid row helpers that
/// solvers::copyValid, addScaled and scaleValid run, so every task rounds
/// as the eager path does.
void combineRow(const StepOp& op, const Real* src, Real* dst, int n) {
  switch (op.kind) {
  case StepOpKind::CopySlot:
    grid::copyRow(src, n, dst);
    break;
  case StepOpKind::AxpySlot:
    grid::plusRow(src, op.scale, n, dst);
    break;
  default: // ScaleSlot
    grid::multRow(op.scale, n, dst);
    break;
  }
}

/// Component c of `fab` from cell `at` on: the start of one x-row.
template <typename Fab> auto* rowOf(Fab& fab, int c, const IntVect& at) {
  return fab.dataPtr(c) + fab.offset(at[0], at[1], at[2]);
}

/// A combine no RhsEval absorbed, on `region` of box `b`, row by row.
void combineOn(const StepOp& op, LevelData* const* tab, std::size_t b,
               const Box& region) {
  FArrayBox& dst = (*tab[static_cast<std::size_t>(op.dst)])[b];
  FArrayBox& src = (*tab[static_cast<std::size_t>(op.src)])[b];
  for (int c = 0; c < dst.nComp(); ++c) {
    grid::forEachRow(region, [&](int j, int k) {
      const IntVect at(region.lo(0), j, k);
      combineRow(op, rowOf(src, c, at), rowOf(dst, c, at), region.size(0));
    });
  }
}

/// What an RHS task does with each finished row of its output k (component
/// c, row (j, k) of the task's region, x from lo0 to lo0 + nx - 1) while the
/// row is in L1: add the dissipation row when `diss` != 0, then, segment by
/// segment, run the absorbed epilogue combines on the segment's part of the
/// row in program order, and store that part to k's level when the sweep
/// wrote the row elsewhere. The combines are pointwise and write neither
/// the RHS's source nor k, so row by row is the same per-element operation
/// sequence as tile pass after tile pass.
struct RowEpilogue {
  LevelData* const* tab;
  const FArrayBox* src; ///< the RHS's source (the Laplacian reads it)
  LevelData* kLevel;    ///< k's level; null when k is tile-local
  int kSlot;            ///< the RHS's output slot
  Real diss;
  const std::vector<StepOp>* ops;
  const std::vector<RhsSegment>* segments;
  int lo0;
  int nx;

  /// Box b's k fab when the task's one segment writes its rows in place.
  [[nodiscard]] FArrayBox* inPlace() const {
    return kLevel != nullptr && segments->size() == 1
               ? &(*kLevel)[segments->front().b]
               : nullptr;
  }

  void operator()(int c, int j, int k, Real* krow) const {
    if (diss != 0.0) {
      kernels::addLaplacianRow(rowOf(*src, c, IntVect(lo0, j, k)),
                               src->strideY(), src->strideZ(), nx, diss,
                               krow);
    }
    const bool store = kLevel != nullptr && segments->size() > 1;
    for (const RhsSegment& seg : *segments) {
      const IntVect at(seg.region.lo(0), j, k);
      const int n = seg.region.size(0);
      Real* srow = krow + (at[0] - lo0);
      for (const StepOp& e : *ops) {
        const Real* erow =
            e.src == kSlot
                ? srow
                : rowOf((*tab[static_cast<std::size_t>(e.src)])[seg.b], c,
                        at);
        combineRow(e, erow,
                   rowOf((*tab[static_cast<std::size_t>(e.dst)])[seg.b], c,
                         at),
                   n);
      }
      if (store) {
        grid::copyRow(srow, n, rowOf((*kLevel)[seg.b], c, at));
      }
    }
  }
};

/// The streamed RHS output: each row of k goes to its row on k's level
/// (RowEpilogue::inPlace) or to the one-row buffer `buf`, and the row
/// epilogue consumes it before the sweep writes the next.
class StreamedRhs final : public detail::RowSink {
public:
  StreamedRhs(FArrayBox* level, Real* buf, const RowEpilogue& epilogue)
      : level_(level), buf_(buf), epilogue_(epilogue) {}

  Real* row(int c, int j, int k) override {
    return level_ != nullptr
               ? rowOf(*level_, c, IntVect(epilogue_.lo0, j, k))
               : buf_;
  }
  void finish(int c, int j, int k, Real* row) override {
    epilogue_(c, j, k, row);
  }

private:
  FArrayBox* level_;
  Real* buf_;
  const RowEpilogue& epilogue_;
};

/// The calling thread's step workspace: the sweeps' scratch, the gathered
/// halo (Slot::Halo) and the one-row k buffer (Slot::Extra) of every RHS
/// task this thread runs, whichever executor's graph the task belongs to.
/// A task writes everything it reads from it; nothing is kept between
/// tasks.
Workspace& stepWorkspace() {
  thread_local Workspace ws;
  return ws;
}

/// The calling thread's RHS output for the families whose sweeps do not
/// finish rows in order, defined on `region`. One buffer per thread,
/// reused for every task: define() keeps the allocation, so after the
/// largest region no task allocates. It holds nothing between tasks.
FArrayBox& tileBuffer(const Box& region, int nc) {
  thread_local FArrayBox buf;
  if (!(buf.box() == region) || buf.nComp() != nc) {
    buf.define(region, nc, grid::Pitch::Padded, grid::Init::Deferred);
  }
  return buf;
}

/// One RHS evaluation of `epilogue.src` on `region`, with its row
/// epilogue. A ShiftFuse sweep streams k row by row (shiftFuseBoxRows): no
/// zero pass, and k's row is one row of the thread's workspace unless the
/// task's one segment writes k's level in place. The other families
/// accumulate the whole region into a zeroed k (that level fab, or the
/// thread's tile buffer), whose rows the epilogue then walks.
void runRhsTile(const VariantConfig& cfg, Workspace& ws, const Box& region,
                int nc, Real scale, const RowEpilogue& epilogue) {
  const FArrayBox& sf = *epilogue.src;
  FArrayBox* inPlace = epilogue.inPlace();
  if (cfg.family == ScheduleFamily::ShiftFuse) {
    Real* buf = inPlace == nullptr
                    ? ws.buffer(Slot::Extra,
                                static_cast<std::size_t>(region.size(0)))
                    : nullptr;
    StreamedRhs sink(inPlace, buf, epilogue);
    detail::shiftFuseBoxRows(cfg, sf, region, ws, scale, sink);
  } else {
    FArrayBox& df = inPlace != nullptr ? *inPlace : tileBuffer(region, nc);
    for (int c = 0; c < nc; ++c) {
      df.setVal(0.0, region, c);
    }
    detail::runBoxSerialDispatch(cfg, sf, df, region, ws, scale);
    for (int c = 0; c < nc; ++c) {
      grid::forEachRow(region, [&](int j, int k) {
        epilogue(c, j, k, rowOf(df, c, IntVect(region.lo(0), j, k)));
      });
    }
  }
#ifdef FLUXDIV_SHADOW_CHECK
  if (epilogue.kLevel != nullptr) {
    for (const RhsSegment& seg : *epilogue.segments) {
      FLUXDIV_SHADOW_WRITE((*epilogue.kLevel)[seg.b], seg.region, 0, nc);
    }
  }
#endif
}

bool reads(const StepOp& op, int slot) {
  switch (op.kind) {
  case StepOpKind::RhsEval:
  case StepOpKind::CopySlot:
    return op.src == slot;
  case StepOpKind::AxpySlot:
    return op.src == slot || op.dst == slot;
  default: // Exchange, BoundaryFill and ScaleSlot read what they write
    return op.dst == slot;
  }
}

/// How the lowering fuses a program. After an RhsEval it absorbs, as an
/// epilogue run by each RHS tile task on its own tile, the maximal run of
/// combines that write neither the RHS's source (neighbouring tiles still
/// read it through their halos) nor its output. Under the parallel policy
/// the RHS output is tile-local when nothing after the epilogue reads it
/// before an RhsEval or CopySlot overwrites it whole (or the program
/// ends): it then has no level, and the epilogue reads it from a row
/// of the thread's workspace or its tile buffer (runRhsTile).
struct FusionPlan {
  std::vector<std::size_t> epilogue; ///< per RhsEval op: combines absorbed
  std::vector<bool> tileLocal;       ///< per RhsEval op: output off-level
  std::vector<bool> level;           ///< per slot: some task touches a level
};

FusionPlan planFusion(const StepProgram& prog, LevelPolicy policy) {
  const std::size_t n = prog.ops.size();
  FusionPlan plan;
  plan.epilogue.assign(n, 0);
  plan.tileLocal.assign(n, false);
  plan.level.assign(static_cast<std::size_t>(prog.nSlots), false);
  plan.level[0] = true; // the caller's solution
  const auto use = [&](int slot) {
    plan.level[static_cast<std::size_t>(slot)] = true;
  };
  for (std::size_t i = 0; i < n; i += plan.epilogue[i] + 1) {
    const StepOp& op = prog.ops[i];
    if (op.kind != StepOpKind::RhsEval) {
      use(op.dst);
      use(op.src);
      continue;
    }
    std::size_t end = i + 1;
    while (end < n && isCombine(prog.ops[end].kind) &&
           prog.ops[end].dst != op.src && prog.ops[end].dst != op.dst) {
      ++end;
    }
    plan.epilogue[i] = end - i - 1;
    bool local = policy != LevelPolicy::BoxSequential;
    for (std::size_t j = end; local && j < n; ++j) {
      const StepOp& later = prog.ops[j];
      if (reads(later, op.dst)) {
        local = false;
      } else if (later.dst == op.dst &&
                 (later.kind == StepOpKind::RhsEval ||
                  later.kind == StepOpKind::CopySlot)) {
        break;
      }
    }
    plan.tileLocal[i] = local;
    use(op.src);
    if (!local) {
      use(op.dst);
    }
    for (std::size_t j = i + 1; j < end; ++j) {
      use(prog.ops[j].dst);
      if (!(local && prog.ops[j].src == op.dst)) {
        use(prog.ops[j].src);
      }
    }
  }
  return plan;
}

/// What the boundary fill of dimension `d` logs on one face of `valid`:
/// the ghost slab it writes and the interior planes it reads.
struct BcFace {
  Box write;
  Box read;
};

/// The faces of `valid` (allocated with `g` ghosts) whose ghosts the fill
/// of dimension `d` writes: those on the domain boundary with a BC.
std::vector<BcFace> bcFaces(const grid::BoundaryFiller& bf,
                            const grid::ProblemDomain& domain,
                            const Box& valid, int g, int d) {
  const Box dom = domain.box();
  const Box alloc = valid.grow(g);
  const auto& type = bf.spec().type[static_cast<std::size_t>(d)];
  std::vector<BcFace> out;
  for (int side = 0; side < 2; ++side) {
    const bool atFace =
        side == 0 ? valid.lo(d) == dom.lo(d) : valid.hi(d) == dom.hi(d);
    if (!atFace ||
        type[static_cast<std::size_t>(side)] == grid::BCType::None) {
      continue;
    }
    // Writes: the g ghost planes beyond this face, spanning the full
    // allocated cross-section (corners included, as fillSide does).
    // Reads: the 4 interior planes the mirror/cubic/Dirichlet rules
    // consume. Cross-section: dimensions e < d span the full allocation
    // (their beyond-domain ghosts were rebuilt by the e-sweep, which
    // happens-before via the corner overlap); dimensions e > d are
    // clipped to the domain when non-periodic — fillSide does read those
    // beyond-domain cells, but whatever it computes from them is
    // overwritten by the later e-sweep, so the effective dataflow (what
    // G2/G3 must order and cover) excludes them.
    IntVect rlo = alloc.lo();
    IntVect rhi = alloc.hi();
    if (side == 0) {
      rlo[d] = valid.lo(d);
      rhi[d] = std::min(valid.lo(d) + 3, valid.hi(d));
    } else {
      rhi[d] = valid.hi(d);
      rlo[d] = std::max(valid.hi(d) - 3, valid.lo(d));
    }
    for (int e = d + 1; e < grid::SpaceDim; ++e) {
      if (!domain.isPeriodic(e)) {
        rlo[e] = std::max(rlo[e], dom.lo(e));
        rhi[e] = std::min(rhi[e], dom.hi(e));
      }
    }
    out.push_back({side == 0 ? alloc.lowSlab(d, g) : alloc.highSlab(d, g),
                   Box(rlo, rhi)});
  }
  return out;
}

/// Per box of the slot that prog.ops[`exchange`] fills: the regions that
/// later ops read from it up to the slot's next Exchange, as their tasks
/// log them. Only two ops read ghost cells: an RhsEval of the slot (the
/// per-direction FusedCell footprints, which miss every edge and corner
/// ghost) and a BoundaryFill of it (bcFaces).
std::vector<std::vector<Box>> ghostReadsAfter(const LowerEnv& env,
                                              std::size_t exchange) {
  const std::vector<StepOp>& ops = env.prog.ops;
  const int slot = ops[exchange].dst;
  const LevelData& level = *env.tab[static_cast<std::size_t>(slot)];
  const grid::BoundaryFiller* bf = env.rhs.boundary;
  std::vector<std::vector<Box>> reads(level.size());
  for (std::size_t j = exchange + 1; j < ops.size(); ++j) {
    const StepOp& op = ops[j];
    if (op.kind == StepOpKind::Exchange && op.dst == slot) {
      break;
    }
    for (std::size_t b = 0; b < level.size(); ++b) {
      const Box valid = level.validBox(b);
      if (op.kind == StepOpKind::RhsEval && op.src == slot) {
        for (int d = 0; d < grid::SpaceDim; ++d) {
          reads[b].push_back(
              kernels::readRegion(kernels::Stage::FusedCell, d, valid));
        }
      }
      if (op.kind == StepOpKind::BoundaryFill && op.dst == slot &&
          bf != nullptr) {
        for (int d = 0; d < grid::SpaceDim; ++d) {
          for (const BcFace& f : bcFaces(*bf, level.layout().domain(),
                                         valid, level.nGhost(), d)) {
            reads[b].push_back(f.read);
          }
        }
      }
    }
  }
  return reads;
}

/// The RHS regions of `valid` (rhsRegions), each tile face on the box
/// rim pushed out by `g` ghost layers: they partition valid.grow(g).
std::vector<Box> ghostFrameTiles(const LowerEnv& env, const Box& valid,
                                 int g) {
  std::vector<Box> out;
  for (const NamedRegion& nr : rhsRegions(env, valid)) {
    IntVect lo = nr.region.lo();
    IntVect hi = nr.region.hi();
    for (int d = 0; d < grid::SpaceDim; ++d) {
      lo[d] -= lo[d] == valid.lo(d) ? g : 0;
      hi[d] += hi[d] == valid.hi(d) ? g : 0;
    }
    out.emplace_back(lo, hi);
  }
  return out;
}

/// The copies of the slot's exchange plan, cut at the tiles of their
/// destination box (ghostFrameTiles), one task per piece that meets a
/// later read (ghostReadsAfter). A tile's RHS then waits only for the
/// pieces in its own frame: an x-face piece reads the source's x rim on
/// that tile's (y, z) cross-section alone, so the next stage of one
/// large box starts tile by tile instead of after a whole-face copy.
/// The plan itself stays whole: it is what LevelData::exchange() runs
/// and what commcheck proves exact, so each exchange-owned ghost cell a
/// task reads lies in exactly one piece, and that piece is lowered; G3
/// re-proves the coverage. A one-tile box lowers each copy whole.
void lowerExchange(Lowering& low, LowerEnv& env, const StepOp& op,
                   const std::vector<std::vector<Box>>& reads) {
  LevelData* const* tab = env.tab;
  const auto slot = static_cast<std::size_t>(op.dst);
  const LevelData& level = *tab[slot];
  const auto& ops = level.copier().ops();
  const int nc = level.nComp();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const grid::CopyOp& cop = ops[i];
    const auto isRead = [&](const Box& region) {
      return std::ranges::any_of(reads[cop.destBox], [&](const Box& r) {
        return r.intersects(region);
      });
    };
    if (!isRead(cop.destRegion)) {
      continue;
    }
    const std::vector<Box> frame = ghostFrameTiles(
        env, level.validBox(cop.destBox), level.nGhost());
    for (std::size_t p = 0; p < frame.size(); ++p) {
      grid::CopyOp piece = cop;
      piece.destRegion = cop.destRegion & frame[p];
      if (piece.destRegion.empty() || !isRead(piece.destRegion)) {
        continue;
      }
      const int t = low.addTask(
          [tab, slot, piece, nc](int) {
            LevelData& lp = *tab[slot];
            lp[piece.destBox].copyShifted(lp[piece.srcBox],
                                          piece.destRegion, piece.srcShift,
                                          0, 0, nc);
          },
          env.ownerOf(cop.destBox),
          env.prog.slotName(op.dst) + " " + level.copier().opLabel(i) +
              tileTag(" tile", "", p, frame.size()) + env.stepTag(op),
          /*exchangeOp=*/true);
      low.access(t, op.dst, piece.srcBox, piece.srcRegion(), nc, false);
      low.access(t, op.dst, piece.destBox, piece.destRegion, nc, true);
    }
  }
}

void lowerBoundaryFill(Lowering& low, LowerEnv& env, const StepOp& op) {
  const grid::BoundaryFiller* bf = env.rhs.boundary;
  if (bf == nullptr) {
    return;
  }
  LevelData& level = *env.tab[static_cast<std::size_t>(op.dst)];
  const int nc = level.nComp();
  for (std::size_t b = 0; b < level.size(); ++b) {
    const Box valid = level.validBox(b);
    // One task per (box, dimension), chained d-1 -> d by the write/write
    // overlap of their corner slabs (the tracker orders them in program
    // order), preserving fill()'s dimension-sweep semantics where later
    // dimensions rebuild edge/corner ghosts from earlier results.
    for (int d = 0; d < grid::SpaceDim; ++d) {
      if (!bf->active(valid, d)) {
        continue;
      }
      LevelData* const* tab = env.tab;
      const auto slot = static_cast<std::size_t>(op.dst);
      const int t = low.addTask(
          [bf, tab, slot, b, d](int) { bf->fillBoxDim(*tab[slot], b, d); },
          env.ownerOf(b),
          "bc " + env.prog.slotName(op.dst) + " box" + std::to_string(b) +
              " d" + std::to_string(d) + env.stepTag(op));
      for (const BcFace& f :
           bcFaces(*bf, level.layout().domain(), valid, level.nGhost(), d)) {
        low.access(t, op.dst, b, f.write, nc, true);
        low.access(t, op.dst, b, f.read, nc, false);
      }
    }
  }
}

/// Whether a capture of `prog` over `u` gathers halos instead of lowering
/// exchanges: every box is one logical tile, the domain is periodic and
/// no op fills a boundary, so every ghost cell an RHS reads is a copy of
/// a neighbour's valid cell. Each RHS task then copies a run of boxes and
/// the face pieces their stencil reads into the thread's ghosted buffer
/// (gatherRun) and reads only that, so no Exchange lowers to a task and no
/// stage slot needs ghost cells.
bool gathersHalos(const StepProgram& prog, const LevelData& u) {
  for (int d = 0; d < grid::SpaceDim; ++d) {
    if (!u.layout().domain().isPeriodic(d)) {
      return false;
    }
  }
  if (std::ranges::any_of(prog.ops, [](const StepOp& op) {
        return op.kind == StepOpKind::BoundaryFill;
      })) {
    return false;
  }
  for (std::size_t b = 0; b < u.size(); ++b) {
    if (logicalTiles(u.validBox(b)).size() != 1) {
      return false;
    }
  }
  return true;
}

/// Per box of `u`, the pieces of u's exchange plan that the RHS stencil
/// (the FusedCell footprint) reads: each copy clipped to the footprint's
/// ghost slab in each direction. Edge and corner copies meet no
/// footprint and drop out. Every slot shares u's layout, so the pieces
/// serve every RHS source; commcheck proves u's plan exact.
std::vector<std::vector<grid::CopyOp>> haloPieces(const LevelData& u) {
  std::vector<std::vector<grid::CopyOp>> out(u.size());
  for (const grid::CopyOp& op : u.copier().ops()) {
    const Box valid = u.validBox(op.destBox);
    for (int d = 0; d < grid::SpaceDim; ++d) {
      grid::CopyOp piece = op;
      piece.destRegion =
          op.destRegion &
          kernels::readRegion(kernels::Stage::FusedCell, d, valid);
      if (!piece.destRegion.empty()) {
        out[op.destBox].push_back(piece);
      }
    }
  }
  return out;
}

/// The RHS tasks of the gather lowering, one per run: each (y, z) row of
/// u's boxes cut into runs of consecutive x-neighbours, as few runs as keep
/// each within kGatherRunCells, balanced in box count (a wider box is a run
/// alone). A run's task sweeps the union of its boxes, so of their `halo`
/// pieces it copies only those whose destination lies outside the run: the
/// x faces between members are valid cells of its buffer already. Run r
/// belongs to worker r % nThreads: ownerOf(first box) would put every
/// 4-box run of a 4-thread pool on worker 0.
std::vector<RhsTask>
gatherRuns(const LevelData& u,
           const std::vector<std::vector<grid::CopyOp>>& halo, int nThreads) {
  const IntVect n = u.layout().gridSize();
  const int perRun = std::max(1, kGatherRunCells / u.layout().boxSize()[0]);
  const int nRuns = (n[0] + perRun - 1) / perRun;
  std::vector<RhsTask> out;
  for (int bz = 0; bz < n[2]; ++bz) {
    for (int by = 0; by < n[1]; ++by) {
      const auto index = [&](int bx) {
        IntVect unused;
        return static_cast<std::size_t>(
            u.layout().wrappedIndex(IntVect(bx, by, bz), unused));
      };
      for (int r = 0; r < nRuns; ++r) {
        const int first = r * n[0] / nRuns;
        const int last = (r + 1) * n[0] / nRuns - 1;
        RhsTask run;
        for (int bx = first; bx <= last; ++bx) {
          run.segments.push_back({index(bx), u.validBox(index(bx))});
        }
        run.region = Box(run.segments.front().region.lo(),
                         run.segments.back().region.hi());
        for (const RhsSegment& seg : run.segments) {
          for (const grid::CopyOp& p : halo[seg.b]) {
            if (!run.region.contains(p.destRegion)) {
              run.pieces.push_back(p);
            }
          }
        }
        run.owner = static_cast<int>(out.size() %
                                     static_cast<std::size_t>(nThreads));
        run.name = "box" + std::to_string(index(first));
        if (last > first) {
          run.name += '-';
          run.name += std::to_string(index(last));
        }
        run.name += " all";
        out.push_back(std::move(run));
      }
    }
  }
  return out;
}

/// The RHS tasks of the exchange lowering: one per box and region
/// (rhsRegions), on the box's worker.
std::vector<RhsTask> tileTasks(const LowerEnv& env) {
  const LevelData& u = *env.tab[0]; // every slot shares u's layout
  std::vector<RhsTask> out;
  for (std::size_t b = 0; b < u.size(); ++b) {
    for (const NamedRegion& nr : rhsRegions(env, u.validBox(b))) {
      out.push_back({nr.region,
                     {{b, nr.region}},
                     {},
                     env.ownerOf(b),
                     "box" + std::to_string(b) + " " + nr.tag});
    }
  }
  return out;
}

/// The RHS source of a gathering run task: the valid cells of its boxes
/// and its halo pieces, copied from `level` into the thread's ghosted
/// buffer over the run.
const FArrayBox& gatherRun(Workspace& ws, const LevelData& level,
                           const RhsTask& run) {
  const int nc = level.nComp();
  FArrayBox& halo = ws.fab(Slot::Halo, run.region.grow(kNumGhost), nc);
  for (const RhsSegment& seg : run.segments) {
    halo.copy(level[seg.b], seg.region, 0, 0, nc);
  }
  for (const grid::CopyOp& p : run.pieces) {
    halo.copyShifted(level[p.srcBox], p.destRegion, p.srcShift, 0, 0, nc);
  }
  return halo;
}

/// One RhsEval op and the `epilogue` combines that follow it in the
/// program (FusionPlan): one task per RhsTask (gatherRuns or tileTasks)
/// that evaluates the RHS on its region and runs the epilogue on each
/// finished row of it (runRhsTile). With `tileLocal` the RHS output has no
/// level. Under the gather lowering the task first gathers its run's halo
/// (gatherRun), which its stencil and the dissipation then read. The
/// access log and the model stay per box: each segment logs what one box's
/// task would.
void lowerRhsEval(Lowering& low, LowerEnv& env, const StepOp& op,
                  std::vector<StepOp> epilogue, bool tileLocal) {
  const LevelData& u = *env.tab[0]; // every slot shares u's layout
  const int nc = u.nComp();
  const bool firstWrite = !low.rhsWritten[static_cast<std::size_t>(op.dst)];
  if (!tileLocal) {
    low.rhsWritten[static_cast<std::size_t>(op.dst)] = true;
  }
  LevelData* const* tab = env.tab;
  const auto srcSlot = static_cast<std::size_t>(op.src);
  const auto dstSlot = static_cast<std::size_t>(op.dst);
  std::string label = "rhs " + env.prog.slotName(op.src) + "->" +
                      env.prog.slotName(op.dst);
  for (const StepOp& e : epilogue) { // e.g. "rhs u->k+copy+axpy"
    label += e.kind == StepOpKind::CopySlot   ? "+copy"
             : e.kind == StepOpKind::AxpySlot ? "+axpy"
                                              : "+scale";
  }
  const VariantConfig* cfg = &env.cfg;
  const Real scale = -env.rhs.invDx;
  const Real diss = env.rhs.dissipation;
  const bool gather = env.gather;
  const std::vector<RhsTask> tiles =
      gather ? std::vector<RhsTask>{} : tileTasks(env);
  std::vector<bool> armed(u.size(), false);
  for (const RhsTask& task : gather ? env.runs : tiles) {
    for (const RhsSegment& seg : task.segments) {
      // A tile-local output has no level, so no shadow epoch to arm.
      if (tileLocal || armed[seg.b]) {
        continue;
      }
      armed[seg.b] = true;
      const std::size_t b = seg.b;
      if (firstWrite) {
        low.epochTargets.emplace_back(op.dst, b);
        continue;
      }
      // Shadow-epoch barrier: the slot is being re-written by a later
      // stage, which the per-epoch write detector would flag as a
      // cross-worker double write. The barrier task re-arms the epoch;
      // its conservative whole-fab footprint (orderingOnly: G3 ignores
      // it) sequences it after every earlier access of this fab and
      // before every later one — exactly the WAR/WAW ordering the
      // re-write needs anyway, so no parallelism beyond that is lost.
      const int t = low.addTask(
          [tab, dstSlot, b](int) {
#ifdef FLUXDIV_SHADOW_CHECK
            (*tab[dstSlot])[b].shadowBeginEpoch();
#else
            (void)tab;
            (void)dstSlot;
            (void)b;
#endif
          },
          env.ownerOf(b),
          "epoch " + env.prog.slotName(op.dst) + " box" + std::to_string(b) +
              env.stepTag(op),
          /*exchangeOp=*/false, /*orderingOnly=*/true);
      const LevelData& dst = *tab[dstSlot];
      low.access(t, op.dst, b, u.validBox(b).grow(dst.nGhost()), nc, true);
    }
    const int t = low.addTask(
        [cfg, tab, srcSlot, dstSlot, task, nc, scale, diss, epilogue,
         tileLocal, gather](int) {
          Workspace& w = stepWorkspace();
          const LevelData& src = *tab[srcSlot];
          const RowEpilogue rows{
              .tab = tab,
              .src = gather ? &gatherRun(w, src, task)
                            : &src[task.segments.front().b],
              .kLevel = tileLocal ? nullptr : tab[dstSlot],
              .kSlot = static_cast<int>(dstSlot),
              .diss = diss,
              .ops = &epilogue,
              .segments = &task.segments,
              .lo0 = task.region.lo(0),
              .nx = task.region.size(0)};
          runRhsTile(*cfg, w, task.region, nc, scale, rows);
        },
        task.owner, label + " " + task.name + env.stepTag(op));
    low.model.tasks[static_cast<std::size_t>(t)].rhsSourceSlot = op.src;
    for (const RhsSegment& seg : task.segments) {
      const std::size_t b = seg.b;
      const Box& region = seg.region;
      std::vector<Box> footprint;
      for (int d = 0; d < grid::SpaceDim; ++d) {
        footprint.push_back(
            kernels::readRegion(kernels::Stage::FusedCell, d, region));
      }
      if (gather) {
        low.access(t, op.src, b, region, nc, false);
        for (const grid::CopyOp& p : env.halo[b]) {
          low.access(t, op.src, p.srcBox, p.srcRegion(), nc, false);
        }
        low.modelHalo(t, op.src, b, footprint, env.halo[b], nc);
      } else {
        for (const Box& r : footprint) {
          low.access(t, op.src, b, r, nc, false);
        }
      }
      if (!tileLocal) {
        low.access(t, op.dst, b, region, nc, true);
      }
      for (const StepOp& e : epilogue) {
        if (e.kind != StepOpKind::ScaleSlot &&
            !(tileLocal && e.src == op.dst)) {
          low.access(t, e.src, b, region, nc, false);
        }
        if (e.kind != StepOpKind::CopySlot) {
          low.access(t, e.dst, b, region, nc, false); // reads old value
        }
        low.access(t, e.dst, b, region, nc, true);
      }
    }
  }
}

/// A combine no RhsEval absorbed: one task per region (combineRegions).
void lowerCombine(Lowering& low, LowerEnv& env, const StepOp& op) {
  const LevelData& dst = *env.tab[static_cast<std::size_t>(op.dst)];
  const int nc = dst.nComp();
  LevelData* const* tab = env.tab;
  std::string label;
  switch (op.kind) {
  case StepOpKind::CopySlot:
    label = "copy " + env.prog.slotName(op.src) + "->" +
            env.prog.slotName(op.dst);
    break;
  case StepOpKind::AxpySlot:
    label = "axpy " + env.prog.slotName(op.dst) +
            "+=" + env.prog.slotName(op.src);
    break;
  default: // ScaleSlot
    label = "scale " + env.prog.slotName(op.dst);
    break;
  }
  for (std::size_t b = 0; b < dst.size(); ++b) {
    for (const NamedRegion& nr : combineRegions(env, dst.validBox(b))) {
      const Box region = nr.region;
      const int t = low.addTask(
          [tab, op, b, region](int) { combineOn(op, tab, b, region); },
          env.ownerOf(b),
          label + " box" + std::to_string(b) + nr.tag + env.stepTag(op));
      if (op.kind != StepOpKind::ScaleSlot) {
        low.access(t, op.src, b, region, nc, false);
      }
      if (op.kind != StepOpKind::CopySlot) {
        low.access(t, op.dst, b, region, nc, false); // reads old value
      }
      low.access(t, op.dst, b, region, nc, true);
    }
  }
}

/// Lower the whole program: every op in program order, each RhsEval
/// together with the epilogue `plan` gives it.
void lowerProgram(Lowering& low, LowerEnv& env, const FusionPlan& plan) {
  const std::vector<StepOp>& ops = env.prog.ops;
  for (std::size_t i = 0; i < ops.size(); i += plan.epilogue[i] + 1) {
    const StepOp& op = ops[i];
    switch (op.kind) {
    case StepOpKind::Exchange:
      if (!env.gather) {
        lowerExchange(low, env, op, ghostReadsAfter(env, i));
      }
      break;
    case StepOpKind::BoundaryFill:
      lowerBoundaryFill(low, env, op);
      break;
    case StepOpKind::RhsEval: {
      const auto first = ops.begin() + static_cast<std::ptrdiff_t>(i + 1);
      lowerRhsEval(low, env, op,
                   std::vector<StepOp>(
                       first,
                       first + static_cast<std::ptrdiff_t>(plan.epilogue[i])),
                   plan.tileLocal[i]);
      break;
    }
    case StepOpKind::CopySlot:
    case StepOpKind::AxpySlot:
    case StepOpKind::ScaleSlot:
      lowerCombine(low, env, op);
      break;
    }
  }
}

} // namespace

struct StepGraphExecutor::Capture {
  // Layout-signature capture key (docs/serving.md "Graph cache"): the
  // graph is rebuilt only when any of these change. The *identity* of the
  // solution LevelData is deliberately absent — a reallocated level with
  // the same signature rebinds via the slot table below.
  std::vector<StepOp> ops;
  int nSlots = 0;
  Box domainBox;
  std::array<bool, grid::SpaceDim> periodic{};
  IntVect boxSize{0, 0, 0};
  int uGhost = 0;
  int uComp = 0;
  Real invDx = 0.0;
  Real dissipation = 0.0;
  const grid::BoundaryFiller* boundary = nullptr;

  // Lowered state.
  /// S4 rebind signature (analysis::stepSignature over the key above plus
  /// the program), re-derived and matched on every rebind.
  std::uint64_t signature = 0;
  const LevelData* boundU = nullptr; ///< what slot 0 points at
  std::vector<LevelData> stage; ///< slots 1..nSlots-1
  /// Runtime slot table every task lambda dereferences, one entry per
  /// program slot; entry 0 is the caller's solution, the rebind target.
  /// Heap-allocated once per capture so its address outlives rebinds.
  std::unique_ptr<LevelData*[]> tab;
  TaskGraph graph;
  analysis::TaskGraphModel model;
  std::vector<std::pair<int, std::size_t>> epochTargets;

  [[nodiscard]] bool matches(const StepProgram& prog, const LevelData& u,
                             const StepRhsSpec& rhs) const {
    const grid::ProblemDomain& dom = u.layout().domain();
    for (int d = 0; d < grid::SpaceDim; ++d) {
      if (periodic[static_cast<std::size_t>(d)] != dom.isPeriodic(d)) {
        return false;
      }
    }
    return nSlots == prog.nSlots && domainBox == dom.box() &&
           boxSize == u.layout().boxSize() && uGhost == u.nGhost() &&
           uComp == u.nComp() && invDx == rhs.invDx &&
           dissipation == rhs.dissipation && boundary == rhs.boundary &&
           ops == prog.ops;
  }
};

StepGraphExecutor::StepGraphExecutor(VariantConfig cfg, int nThreads,
                                     StepExecOptions opts)
    : cfg_(cfg),
      nThreads_(opts.sharedPool != nullptr ? opts.sharedPool->nThreads()
                                           : (nThreads < 1 ? 1 : nThreads)),
      opts_(opts),
      ownedPool_(opts.sharedPool != nullptr
                     ? nullptr
                     : std::make_unique<TaskPool>(nThreads_, opts.pin)),
      pool_(opts.sharedPool != nullptr ? opts.sharedPool
                                       : ownedPool_.get()),
      runner_(std::make_unique<FluxDivRunner>(cfg, nThreads_)) {}

StepGraphExecutor::~StepGraphExecutor() = default;

StepGraphExecutor::Capture&
StepGraphExecutor::ensureCapture(const StepProgram& prog,
                                 grid::LevelData& u,
                                 const StepRhsSpec& rhs) {
  if (capture_ != nullptr && capture_->matches(prog, u, rhs)) {
    stats_.rebuilt = false;
    ++stats_.cacheHits;
    if (capture_->boundU != &u) {
      // Same layout signature, different allocation: rebind the solution
      // entry of the slot table — every cached task lambda now reads and
      // writes the new level. Nothing is re-lowered or re-verified (the
      // graph depends only on the signature), so the S4 gate first proves
      // the signature of what we are about to run equals the one the
      // graph was captured (and step-verified) under.
      const std::uint64_t sig = analysis::stepSignature(
          prog, StepFuse::Fused, stepShapeKeyOf(u, rhs));
      if (sig != capture_->signature) {
        throw std::logic_error(
            "StepGraphExecutor: rebind signature mismatch (captured " +
            analysis::stepSignatureHex(capture_->signature) +
            ", rebinding against " + analysis::stepSignatureHex(sig) +
            "): the cache key admitted a shape the graph was never "
            "verified for");
      }
      capture_->tab[0] = &u;
      capture_->boundU = &u;
      ++stats_.rebinds;
    }
    return *capture_;
  }

  if (u.nComp() != kNumComp) {
    throw std::invalid_argument(
        "StepGraphExecutor: solution must have kNumComp components");
  }
  if (u.nGhost() < kNumGhost) {
    throw std::invalid_argument(
        "StepGraphExecutor: solution needs at least kNumGhost ghosts");
  }

  auto cap = std::make_unique<Capture>();
  cap->ops = prog.ops;
  cap->nSlots = prog.nSlots;
  cap->domainBox = u.layout().domain().box();
  for (int d = 0; d < grid::SpaceDim; ++d) {
    cap->periodic[static_cast<std::size_t>(d)] =
        u.layout().domain().isPeriodic(d);
  }
  cap->boxSize = u.layout().boxSize();
  cap->uGhost = u.nGhost();
  cap->uComp = u.nComp();
  cap->invDx = rhs.invDx;
  cap->dissipation = rhs.dissipation;
  cap->boundary = rhs.boundary;
  cap->boundU = &u;

  cap->signature =
      analysis::stepSignature(prog, StepFuse::Fused, stepShapeKeyOf(u, rhs));
#ifdef FLUXDIV_VERIFY
  verifyStepOnce(prog, u, rhs);
#endif

  // Kernel-contract gate of the variant the RHS tasks run (compiled out
  // unless FLUXDIV_VERIFY — see core/runner.hpp).
  runner_->prepare();

  // Backing storage: the solution slot is the caller's level; every stage
  // slot some task touches gets a level owned by the capture, with ghosts
  // only where the program needs them (slotGhosts), and none at all under
  // the gather lowering, whose RHS tasks read their own halo buffers. A
  // tile-local RHS output has no level: its slot-table entry stays null.
  const FusionPlan plan = planFusion(prog, opts_.policy);
  const bool gather = gathersHalos(prog, u);
  cap->tab.reset(new LevelData*[static_cast<std::size_t>(prog.nSlots)]());
  cap->tab[0] = &u;
  cap->stage.reserve(static_cast<std::size_t>(prog.nSlots - 1));
  for (int s = 1; s < prog.nSlots; ++s) {
    if (plan.level[static_cast<std::size_t>(s)]) {
      cap->stage.emplace_back(u.layout(), kNumComp,
                              gather ? 0 : slotGhosts(prog, s),
                              grid::Pitch::Padded, grid::Init::Deferred);
      cap->tab[static_cast<std::size_t>(s)] = &cap->stage.back();
    }
  }
#ifdef FLUXDIV_VERIFY
  for (int s = 0; s < prog.nSlots; ++s) {
    if (cap->tab[static_cast<std::size_t>(s)] != nullptr) {
      verifyCommOnce(*cap->tab[static_cast<std::size_t>(s)]);
    }
  }
#endif

  LowerEnv env{cfg_,         nThreads_, prog, rhs, cap->tab.get(),
               opts_.policy, gather, {},        {}};
  if (gather) {
    env.halo = haloPieces(u);
    env.runs = gatherRuns(u, env.halo, nThreads_);
  }

  // Zero the stage levels on the pool: the stage slots hold zeros before
  // the first step, as under Init::Zero, but the memory pass (and the
  // first touch of fresh pages) is parallel. One task per ~512 KiB chunk
  // of each fab, on the worker that owns the box.
  {
    constexpr std::size_t kChunk = (std::size_t{512} << 10) / sizeof(Real);
    TaskGraph zero;
    for (LevelData& level : cap->stage) {
      for (std::size_t b = 0; b < level.size(); ++b) {
        Real* p = level[b].dataPtr();
        const std::size_t n = level[b].size();
        for (std::size_t lo = 0; lo < n; lo += kChunk) {
          const std::size_t hi = std::min(n, lo + kChunk);
          zero.addTask([p, lo, hi](int) { std::fill(p + lo, p + hi, 0.0); },
                       env.ownerOf(b));
        }
      }
    }
    dispatch(zero);
  }
  Lowering low(cfg_.name() + " [step " + stepFuseName(StepFuse::Fused) +
                   " " + levelPolicyName(opts_.policy) + "]",
               u);
  low.rhsWritten.assign(static_cast<std::size_t>(prog.nSlots), false);
  lowerProgram(low, env, plan);
  cap->graph = std::move(low.graph);
  cap->model = std::move(low.model);
  cap->epochTargets = std::move(low.epochTargets);

#ifdef FLUXDIV_VERIFY
  // Prove the captured graph race-free before its first execution.
  analysis::throwOnDiagnostics(
      "StepGraphExecutor: task-graph verification failed for '" +
          cap->model.name + "'",
      analysis::checkTaskGraph(cap->model, /*findRemovable=*/false)
          .diagnostics);
#endif

  const std::uint64_t hits = stats_.cacheHits;
  const std::uint64_t rebinds = stats_.rebinds;
  stats_ = StepGraphStats{};
  stats_.cacheHits = hits; // lifetime counters survive rebuilds
  stats_.rebinds = rebinds;
  stats_.fuse = StepFuse::Fused;
  stats_.graphCount = 1;
  stats_.exchangeDepth = kNumGhost;
  stats_.rebuilt = true;
  stats_.taskCount = cap->graph.size();
  stats_.edgeCount = cap->model.edgeCount();
  for (const auto& t : cap->model.tasks) {
    if (t.exchangeOp) {
      ++stats_.exchangeOps;
    }
  }
  for (const LevelData& level : cap->stage) {
    stats_.stageGhosts = std::max(stats_.stageGhosts, level.nGhost());
  }

  capture_ = std::move(cap);
  return *capture_;
}

void StepGraphExecutor::run(const StepProgram& prog, grid::LevelData& u,
                            const StepRhsSpec& rhs) {
  ensureCapture(prog, u, rhs);
  TaskGraph& graph = beginPhase(0);
  if (opts_.replay.order != ReplayOrder::None) {
    pool_->runReplay(graph, opts_.replay);
  } else {
    dispatch(graph);
  }
  endPhase(0);
}

void StepGraphExecutor::dispatch(TaskGraph& graph) {
  if (opts_.sharedPool != nullptr) {
    pool_->wait(pool_->submit(graph, opts_.domain));
  } else {
    pool_->run(graph);
  }
}

std::size_t StepGraphExecutor::preparePhases(const StepProgram& prog,
                                             grid::LevelData& u,
                                             const StepRhsSpec& rhs) {
  ensureCapture(prog, u, rhs);
  return 1;
}

StepGraphExecutor::Capture&
StepGraphExecutor::capturedPhase(std::size_t p, const char* caller) {
  if (capture_ == nullptr || p != 0) {
    throw std::logic_error(std::string("StepGraphExecutor::") + caller +
                           ": no capture (call preparePhases) or phase " +
                           std::to_string(p) + " is not 0");
  }
  return *capture_;
}

TaskGraph& StepGraphExecutor::beginPhase(std::size_t p) {
  Capture& cap = capturedPhase(p, "beginPhase");
#ifdef FLUXDIV_SHADOW_CHECK
  for (const auto& [slot, b] : cap.epochTargets) {
    (*cap.tab[static_cast<std::size_t>(slot)])[b].shadowBeginEpoch();
  }
#endif
  return cap.graph;
}

void StepGraphExecutor::endPhase(std::size_t p) {
  [[maybe_unused]] const Capture& cap = capturedPhase(p, "endPhase");
#ifdef FLUXDIV_SHADOW_CHECK
  for (const auto& [slot, b] : cap.epochTargets) {
    detail::throwOnShadowViolations(
        (*cap.tab[static_cast<std::size_t>(slot)])[b], "StepGraphExecutor");
  }
#endif
}

analysis::TaskGraphModel
StepGraphExecutor::lowerModel(const StepProgram& prog, grid::LevelData& u,
                              const StepRhsSpec& rhs) {
  return ensureCapture(prog, u, rhs).model;
}

} // namespace fluxdiv::core
