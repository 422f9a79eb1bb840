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

// planStepHalos moved to core/stepprogram.cpp (fluxdiv_variant) so the
// analysis library can plan halos without linking the executors.

namespace {

#ifdef FLUXDIV_VERIFY
void throwOnStepGraphDiagnostics(const analysis::TaskGraphModel& model) {
  const analysis::GraphCheckReport report =
      analysis::checkTaskGraph(model, /*findRemovable=*/false);
  if (report.ok()) {
    return;
  }
  std::vector<std::string> msgs;
  msgs.reserve(report.diagnostics.size());
  for (const auto& d : report.diagnostics) {
    msgs.push_back(d.message());
  }
  throw std::logic_error(analysis::verifyFailureMessage(
      "StepGraphExecutor: task-graph verification failed for '" +
          model.name + "'",
      msgs));
}
#endif

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
/// (program, fuse, layout, physics) signature, prove the fuse mode's halo
/// plan semantically equivalent to the eager reference (stepcheck S1/S2).
/// Tightness (S3) is advisory and proven offline by the stepcheck test
/// suite (tests/analysis/test_stepcheck.cpp), so the gate skips it.
void verifyStepOnce(const StepProgram& prog, StepFuse fuse,
                    const StepHaloPlan& plan, const LevelData& u,
                    const StepRhsSpec& rhs) {
  static analysis::VerifyGate gate;
  const std::uint64_t sig =
      analysis::stepSignature(prog, fuse, stepShapeKeyOf(u, rhs));
  if (!gate.shouldVerify(analysis::stepSignatureHex(sig))) {
    return;
  }
  analysis::StepCheckOptions opts;
  opts.boxSize = u.validBox(0).size(0);
  opts.nBoxes = static_cast<int>(u.size());
  opts.checkTightness = false;
  const analysis::StepCheckReport report =
      analysis::checkStepProgram(prog, fuse, plan, opts);
  if (report.ok()) {
    return;
  }
  std::vector<std::string> msgs;
  msgs.reserve(report.diagnostics.size());
  for (const auto& d : report.diagnostics) {
    msgs.push_back(d.message());
  }
  throw std::logic_error(analysis::verifyFailureMessage(
      "StepGraphExecutor: step-program verification failed under fuse '" +
          std::string(stepFuseName(fuse)) + "'",
      msgs));
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
/// slot level, prove the level's exchange plan exact, matched, and
/// deadlock-free (analysis/commcheck) under rank partitions {1,2,4,8}.
/// Each distinct (layout, ghost depth) is proven once per process — the
/// solution's standard plan, and CommAvoid's deepened one.
void verifyCommOnce(const LevelData& level) {
  static analysis::VerifyGate gate;
  if (level.size() == 0 || level.nGhost() <= 0 ||
      !gate.shouldVerify(levelShapeKey(level))) {
    return;
  }
  analysis::CommPlanModel model = analysis::buildCommPlanModel(
      level.layout(), level.copier(), level.nComp());
  for (const int nranks : {1, 2, 4, 8}) {
    if (static_cast<std::size_t>(nranks) > level.size()) {
      break;
    }
    analysis::applyRankPartition(model, nranks);
    const analysis::CommCheckReport report = analysis::checkCommPlan(model);
    if (report.ok()) {
      continue;
    }
    std::vector<std::string> msgs;
    msgs.reserve(report.diagnostics.size());
    for (const auto& d : report.diagnostics) {
      msgs.push_back(d.message());
    }
    throw std::logic_error(analysis::verifyFailureMessage(
        "StepGraphExecutor: exchange-plan verification failed for '" +
            model.name + "' under " + std::to_string(nranks) + " rank(s)",
        msgs));
  }
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

/// Everything lowerOp() needs about the capture being built. `slots` is
/// the lowering-time view (layouts, copiers, valid boxes); `tab` is the
/// capture's *runtime* slot table, which task lambdas capture and
/// dereference on every execution so rebinding an entry (layout-keyed
/// reuse after the solution is reallocated) retargets every task without
/// re-lowering.
struct LowerEnv {
  const VariantConfig& cfg;
  WorkspacePool& ws;
  int nThreads;
  const StepProgram& prog;
  StepRhsSpec rhs;
  std::vector<LevelData*> slots; ///< program slot -> backing storage
  LevelData* const* tab;         ///< runtime slot table (Capture-owned)
  const StepHaloPlan& plan;
  LevelPolicy policy;
  StepFuse fuse;

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

/// Task decomposition of one RHS evaluation over one box. Comm-avoiding
/// runs the whole widened region as one task (the deep exchange already
/// happened; there is nothing left to overlap). The hybrid policy turns
/// overlapped tiles into (box x tile) tasks — the sparse cross-stage
/// tiling: a tile's stage-(i+1) task depends only on the stage-i tasks
/// whose footprints it reads, not on the whole level. Other policies peel
/// an interior plus six halo-fringe slabs so interior compute overlaps
/// the exchange (whole-box when the box is too small, or under the
/// sequential policy where coarse tasks mirror the seed loop's
/// granularity). The pieces always partition the region, and every
/// family accumulates each cell's flux differences in the same per-cell
/// order, so any decomposition is bit-identical.
std::vector<NamedRegion> rhsRegions(const LowerEnv& env, const Box& valid,
                                    int w) {
  std::vector<NamedRegion> out;
  if (env.fuse == StepFuse::CommAvoid) {
    out.push_back({valid.grow(w), w > 0 ? "w" + std::to_string(w) : "all"});
    return out;
  }
  if (env.policy == LevelPolicy::Hybrid &&
      env.cfg.family == ScheduleFamily::OverlappedTiles &&
      env.cfg.tileSize > 0) {
    const sched::TileSet tiles = detail::makeTileSet(env.cfg, valid);
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      out.push_back({tiles.tileBox(t), "tile" + std::to_string(t)});
    }
    return out;
  }
  const int g = kNumGhost;
  const Box interior = valid.grow(-g);
  if (env.policy == LevelPolicy::BoxSequential || interior.empty()) {
    out.push_back({valid, "all"});
    return out;
  }
  const Box zmid = valid.grow(2, -g);
  const Box zymid = zmid.grow(1, -g);
  out.push_back({interior, "int"});
  out.push_back({valid.lowSlab(2, g), "z-lo"});
  out.push_back({valid.highSlab(2, g), "z-hi"});
  out.push_back({zmid.lowSlab(1, g), "y-lo"});
  out.push_back({zmid.highSlab(1, g), "y-hi"});
  out.push_back({zymid.lowSlab(0, g), "x-lo"});
  out.push_back({zymid.highSlab(0, g), "x-hi"});
  return out;
}

/// Task decomposition of one stage combine (copy/axpy/scale) over one
/// box: per-tile under the hybrid policy's sparse tiling, else one task
/// per box (already a parallel improvement over the eager integrator's
/// serial whole-level sweeps).
std::vector<NamedRegion> combineRegions(const LowerEnv& env,
                                        const Box& valid, int w) {
  std::vector<NamedRegion> out;
  if (env.fuse != StepFuse::CommAvoid &&
      env.policy == LevelPolicy::Hybrid &&
      env.cfg.family == ScheduleFamily::OverlappedTiles &&
      env.cfg.tileSize > 0) {
    const sched::TileSet tiles = detail::makeTileSet(env.cfg, valid);
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      out.push_back({tiles.tileBox(t), " tile" + std::to_string(t)});
    }
    return out;
  }
  out.push_back({valid.grow(w), w > 0 ? " w" + std::to_string(w) : ""});
  return out;
}

void lowerExchange(Lowering& low, LowerEnv& env, const StepOp& op) {
  LevelData& level = *env.slots[static_cast<std::size_t>(op.dst)];
  const auto& ops = level.copier().ops();
  const int nc = level.nComp();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const grid::CopyOp cop = ops[i];
    LevelData* const* tab = env.tab;
    const auto slot = static_cast<std::size_t>(op.dst);
    const int t = low.addTask(
        [tab, slot, cop, nc](int) {
          LevelData& lp = *tab[slot];
          lp[cop.destBox].copyShifted(lp[cop.srcBox], cop.destRegion,
                                      cop.srcShift, 0, 0, nc);
        },
        env.ownerOf(cop.destBox),
        env.prog.slotName(op.dst) + " " + level.copier().opLabel(i) +
            env.stepTag(op),
        /*exchangeOp=*/true);
    low.access(t, op.dst, cop.srcBox, cop.srcRegion(), nc, false);
    low.access(t, op.dst, cop.destBox, cop.destRegion, nc, true);
  }
}

void lowerBoundaryFill(Lowering& low, LowerEnv& env, const StepOp& op) {
  const grid::BoundaryFiller* bf = env.rhs.boundary;
  if (bf == nullptr) {
    return;
  }
  LevelData& level = *env.slots[static_cast<std::size_t>(op.dst)];
  const grid::ProblemDomain& domain = level.layout().domain();
  const Box dom = domain.box();
  const int nc = level.nComp();
  const int g = level.nGhost();
  for (std::size_t b = 0; b < level.size(); ++b) {
    const Box valid = level.validBox(b);
    const Box alloc = valid.grow(g);
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
      const auto& type = bf->spec().type[static_cast<std::size_t>(d)];
      for (int side = 0; side < 2; ++side) {
        const bool atFace = side == 0 ? valid.lo(d) == dom.lo(d)
                                      : valid.hi(d) == dom.hi(d);
        if (!atFace || type[static_cast<std::size_t>(side)] ==
                           grid::BCType::None) {
          continue;
        }
        // Writes: the g ghost planes beyond this face, spanning the full
        // allocated cross-section (corners included, as fillSide does).
        low.access(t, op.dst, b,
                   side == 0 ? alloc.lowSlab(d, g) : alloc.highSlab(d, g),
                   nc, true);
        // Reads: the 4 interior planes the mirror/cubic/Dirichlet rules
        // consume. Cross-section: dimensions e < d span the full
        // allocation (their beyond-domain ghosts were rebuilt by the
        // e-sweep, which happens-before via the corner overlap);
        // dimensions e > d are clipped to the domain when non-periodic —
        // fillSide does read those beyond-domain cells, but whatever it
        // computes from them is overwritten by the later e-sweep, so the
        // effective dataflow (what G2/G3 must order and cover) excludes
        // them.
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
        low.access(t, op.dst, b, Box(rlo, rhi), nc, false);
      }
    }
  }
}

void lowerRhsEval(Lowering& low, LowerEnv& env, const StepOp& op, int w) {
  LevelData& dst = *env.slots[static_cast<std::size_t>(op.dst)];
  const int nc = dst.nComp();
  const bool firstWrite = !low.rhsWritten[static_cast<std::size_t>(op.dst)];
  low.rhsWritten[static_cast<std::size_t>(op.dst)] = true;
  LevelData* const* tab = env.tab;
  const auto srcSlot = static_cast<std::size_t>(op.src);
  const auto dstSlot = static_cast<std::size_t>(op.dst);
  for (std::size_t b = 0; b < dst.size(); ++b) {
    const Box valid = dst.validBox(b);
    if (firstWrite) {
      low.epochTargets.emplace_back(op.dst, b);
    } else {
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
          "epoch " + env.prog.slotName(op.dst) + " box" +
              std::to_string(b) + env.stepTag(op),
          /*exchangeOp=*/false, /*orderingOnly=*/true);
      low.access(t, op.dst, b, valid.grow(dst.nGhost()), nc, true);
    }
    const VariantConfig* cfg = &env.cfg;
    WorkspacePool* ws = &env.ws;
    const Real scale = -env.rhs.invDx;
    const Real diss = env.rhs.dissipation;
    for (const NamedRegion& nr : rhsRegions(env, valid, w)) {
      const Box region = nr.region;
      const int t = low.addTask(
          [cfg, ws, tab, srcSlot, dstSlot, b, region, nc, scale,
           diss](int worker) {
            const FArrayBox& sf = (*tab[srcSlot])[b];
            FArrayBox& df = (*tab[dstSlot])[b];
            for (int c = 0; c < nc; ++c) {
              df.setVal(0.0, region, c);
            }
            detail::runBoxSerialDispatch(*cfg, sf, df, region,
                                         (*ws)[worker], scale);
            if (diss != 0.0) {
              kernels::addLaplacian(sf, df, region, diss);
            }
            FLUXDIV_SHADOW_WRITE(df, region, 0, nc);
          },
          env.ownerOf(b),
          "rhs " + env.prog.slotName(op.src) + "->" +
              env.prog.slotName(op.dst) + " box" + std::to_string(b) +
              " " + nr.tag + env.stepTag(op));
      low.model.tasks[static_cast<std::size_t>(t)].rhsSourceSlot = op.src;
      for (int d = 0; d < grid::SpaceDim; ++d) {
        low.access(t, op.src, b,
                   kernels::readRegion(kernels::Stage::FusedCell, d,
                                       region),
                   nc, false);
      }
      low.access(t, op.dst, b, region, nc, true);
    }
  }
}

void lowerCombine(Lowering& low, LowerEnv& env, const StepOp& op, int w) {
  LevelData& dst = *env.slots[static_cast<std::size_t>(op.dst)];
  const int nc = dst.nComp();
  LevelData* const* tab = env.tab;
  const auto srcSlot = static_cast<std::size_t>(op.src);
  const auto dstSlot = static_cast<std::size_t>(op.dst);
  for (std::size_t b = 0; b < dst.size(); ++b) {
    const Box valid = dst.validBox(b);
    for (const NamedRegion& nr : combineRegions(env, valid, w)) {
      const Box region = nr.region;
      TaskGraph::Fn fn;
      std::string label;
      switch (op.kind) {
      case StepOpKind::CopySlot:
        fn = [tab, srcSlot, dstSlot, b, region, nc](int) {
          (*tab[dstSlot])[b].copy((*tab[srcSlot])[b], region, 0, 0, nc);
        };
        label = "copy " + env.prog.slotName(op.src) + "->" +
                env.prog.slotName(op.dst);
        break;
      case StepOpKind::AxpySlot: {
        const Real s = op.scale;
        fn = [tab, srcSlot, dstSlot, b, region, s](int) {
          (*tab[dstSlot])[b].plus((*tab[srcSlot])[b], s, region);
        };
        label = "axpy " + env.prog.slotName(op.dst) + "+=" +
                env.prog.slotName(op.src);
        break;
      }
      default: { // ScaleSlot
        const Real s = op.scale;
        fn = [tab, dstSlot, b, region, nc, s](int) {
          FArrayBox& df = (*tab[dstSlot])[b];
          for (int c = 0; c < nc; ++c) {
            Real* p = df.dataPtr(c);
            forEachCell(region, [&](int i, int j, int k) {
              p[df.offset(i, j, k)] *= s;
            });
          }
        };
        label = "scale " + env.prog.slotName(op.dst);
        break;
      }
      }
      const int t =
          low.addTask(std::move(fn), env.ownerOf(b),
                      label + " box" + std::to_string(b) + nr.tag +
                          env.stepTag(op));
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

void lowerOp(Lowering& low, LowerEnv& env, std::size_t opIdx) {
  const StepOp& op = env.prog.ops[opIdx];
  const int w = env.plan.width[opIdx];
  if (w < 0) {
    return; // dropped by the comm-avoiding transform
  }
  switch (op.kind) {
  case StepOpKind::Exchange:
    lowerExchange(low, env, op);
    break;
  case StepOpKind::BoundaryFill:
    lowerBoundaryFill(low, env, op);
    break;
  case StepOpKind::RhsEval:
    lowerRhsEval(low, env, op, w);
    break;
  case StepOpKind::CopySlot:
  case StepOpKind::AxpySlot:
  case StepOpKind::ScaleSlot:
    lowerCombine(low, env, op, w);
    break;
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
  StepFuse fuse = StepFuse::Fused;
  /// S4 rebind signature (analysis::stepSignature over the key above plus
  /// the program and fuse), re-derived and matched on every rebind.
  std::uint64_t signature = 0;
  int depth = kNumGhost;
  const LevelData* boundU = nullptr; ///< what the rebind slot points at
  std::vector<LevelData> stage; ///< Fused: slots 1..nSlots-1
  std::vector<LevelData> deep;  ///< CommAvoid: all slots at `depth` ghosts
  /// Runtime slot table every task lambda dereferences: entries
  /// 0..nSlots-1 back the program slots, entry nSlots is the external
  /// solution under CommAvoid (copyin/copyout). Heap-allocated once per
  /// capture so its address outlives rebinds.
  std::unique_ptr<LevelData*[]> tab;
  int rebindSlot = 0; ///< tab index that tracks the caller's solution
  TaskGraph graph;
  analysis::TaskGraphModel model;
  std::vector<std::pair<int, std::size_t>> epochTargets;

  [[nodiscard]] bool matches(const StepProgram& prog, const LevelData& u,
                             const StepRhsSpec& rhs) const {
    const auto sameOp = [](const StepOp& a, const StepOp& b) {
      return a.kind == b.kind && a.dst == b.dst && a.src == b.src &&
             a.scale == b.scale && a.step == b.step;
    };
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
           ops.size() == prog.ops.size() &&
           std::equal(ops.begin(), ops.end(), prog.ops.begin(), sameOp);
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
      ws_(nThreads_),
      runner_(std::make_unique<FluxDivRunner>(cfg, nThreads_)) {
  if (opts_.fuse == StepFuse::Eager) {
    throw std::invalid_argument(
        "StepGraphExecutor: StepFuse::Eager is the reference path; use "
        "the integrator's eager loop");
  }
}

StepGraphExecutor::~StepGraphExecutor() = default;

StepFuse StepGraphExecutor::effectiveFuse(const StepProgram& prog,
                                          const grid::LevelData& u,
                                          const StepRhsSpec& rhs) const {
  if (opts_.fuse != StepFuse::CommAvoid) {
    return opts_.fuse;
  }
  if (rhs.boundary != nullptr) {
    return StepFuse::Fused; // BCs need the per-stage ghost rebuild
  }
  const int depth = planStepHalos(prog, StepFuse::CommAvoid).depth;
  for (std::size_t b = 0; b < u.size(); ++b) {
    for (int d = 0; d < grid::SpaceDim; ++d) {
      if (depth > u.validBox(b).size(d)) {
        return StepFuse::Fused; // halo deeper than the box: no exchange
      }
    }
  }
  return StepFuse::CommAvoid;
}

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
          prog, capture_->fuse, stepShapeKeyOf(u, rhs));
      if (sig != capture_->signature) {
        throw std::logic_error(
            "StepGraphExecutor: rebind signature mismatch (captured " +
            analysis::stepSignatureHex(capture_->signature) +
            ", rebinding against " + analysis::stepSignatureHex(sig) +
            "): the cache key admitted a shape the graph was never "
            "verified for");
      }
      capture_->tab[static_cast<std::size_t>(capture_->rebindSlot)] = &u;
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
  cap->fuse = effectiveFuse(prog, u, rhs);

  const StepHaloPlan plan = planStepHalos(prog, cap->fuse);
  cap->depth = plan.depth;
  cap->signature =
      analysis::stepSignature(prog, cap->fuse, stepShapeKeyOf(u, rhs));
#ifdef FLUXDIV_VERIFY
  verifyStepOnce(prog, cap->fuse, plan, u, rhs);
#endif

  // Schedule-legality and kernel-contract gates for every box shape the
  // tasks will run (cached inside the runner, compiled out unless
  // FLUXDIV_VERIFY — see core/runner.hpp).
  for (std::size_t b = 0; b < u.size(); ++b) {
    runner_->prepare(u.validBox(b));
  }

  // Backing storage. Fused: the solution slot is the caller's level;
  // stage slots get standard-ghost levels. CommAvoid: every slot —
  // including a private copy of the solution — gets a deepened-halo level
  // so the one up-front exchange can feed the whole widened chain. The
  // runtime slot table carries one extra entry (index nSlots) for the
  // external solution, which CommAvoid's copyin/copyout tasks use; the
  // entry tracking the caller's level is the rebind target.
  std::vector<LevelData*> slots(static_cast<std::size_t>(prog.nSlots));
  cap->tab.reset(new LevelData*[static_cast<std::size_t>(prog.nSlots + 1)]);
  if (cap->fuse == StepFuse::CommAvoid) {
    cap->deep.reserve(static_cast<std::size_t>(prog.nSlots));
    for (int s = 0; s < prog.nSlots; ++s) {
      cap->deep.emplace_back(u.layout(), kNumComp, cap->depth);
      slots[static_cast<std::size_t>(s)] = &cap->deep.back();
    }
    cap->rebindSlot = prog.nSlots;
  } else {
    slots[0] = &u;
    cap->stage.reserve(static_cast<std::size_t>(prog.nSlots - 1));
    for (int s = 1; s < prog.nSlots; ++s) {
      cap->stage.emplace_back(u.layout(), kNumComp, kNumGhost);
      slots[static_cast<std::size_t>(s)] = &cap->stage.back();
    }
    cap->rebindSlot = 0;
  }
  for (int s = 0; s < prog.nSlots; ++s) {
    cap->tab[static_cast<std::size_t>(s)] =
        slots[static_cast<std::size_t>(s)];
  }
  cap->tab[static_cast<std::size_t>(prog.nSlots)] = &u;
#ifdef FLUXDIV_VERIFY
  for (const LevelData* level : slots) {
    verifyCommOnce(*level);
  }
#endif

  LowerEnv env{cfg_,  ws_,  nThreads_,  prog,      rhs,
               slots, cap->tab.get(), plan, opts_.policy, cap->fuse};
  if (cap->fuse == StepFuse::CommAvoid) {
    env.rhs.boundary = nullptr; // periodic only; BC ops are dropped
  }

  Lowering low(cfg_.name() + " [step " + stepFuseName(cap->fuse) + " " +
                   levelPolicyName(opts_.policy) + "]",
               u);
  low.rhsWritten.assign(static_cast<std::size_t>(prog.nSlots), false);
  const int nc = u.nComp();
  LevelData* const* tab = cap->tab.get();
  const auto extSlot = static_cast<std::size_t>(prog.nSlots);
  if (cap->fuse == StepFuse::CommAvoid) {
    // Copy the caller's solution into the deep slot (model slot nSlots
    // identifies the external level).
    for (std::size_t b = 0; b < u.size(); ++b) {
      const Box valid = u.validBox(b);
      const int t = low.addTask(
          [tab, extSlot, b, valid, nc](int) {
            (*tab[0])[b].copy((*tab[extSlot])[b], valid, 0, 0, nc);
          },
          env.ownerOf(b), "copyin u box" + std::to_string(b));
      low.access(t, prog.nSlots, b, valid, nc, false);
      low.access(t, 0, b, valid, nc, true);
    }
  }
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    lowerOp(low, env, i);
  }
  if (cap->fuse == StepFuse::CommAvoid) {
    for (std::size_t b = 0; b < u.size(); ++b) {
      const Box valid = u.validBox(b);
      const int t = low.addTask(
          [tab, extSlot, b, valid, nc](int) {
            (*tab[extSlot])[b].copy((*tab[0])[b], valid, 0, 0, nc);
          },
          env.ownerOf(b), "copyout u box" + std::to_string(b));
      low.access(t, 0, b, valid, nc, false);
      low.access(t, prog.nSlots, b, valid, nc, true);
    }
  }
  cap->graph = std::move(low.graph);
  cap->model = std::move(low.model);
  cap->epochTargets = std::move(low.epochTargets);

#ifdef FLUXDIV_VERIFY
  // Prove the captured graph race-free before its first execution.
  throwOnStepGraphDiagnostics(cap->model);
#endif

  const std::uint64_t hits = stats_.cacheHits;
  const std::uint64_t rebinds = stats_.rebinds;
  stats_ = StepGraphStats{};
  stats_.cacheHits = hits; // lifetime counters survive rebuilds
  stats_.rebinds = rebinds;
  stats_.fuse = cap->fuse;
  stats_.graphCount = 1;
  stats_.exchangeDepth = cap->depth;
  stats_.rebuilt = true;
  stats_.taskCount = cap->graph.size();
  stats_.edgeCount = cap->model.edgeCount();
  for (const auto& t : cap->model.tasks) {
    if (t.exchangeOp) {
      ++stats_.exchangeOps;
    }
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
  } else if (opts_.sharedPool != nullptr) {
    pool_->wait(pool_->submit(graph, opts_.domain));
  } else {
    pool_->run(graph);
  }
  endPhase(0);
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
