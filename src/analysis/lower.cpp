#include "analysis/lower.hpp"

#include <stdexcept>

#include "kernels/footprint.hpp"
#include "sched/partition.hpp"
#include "sched/tiles.hpp"

namespace fluxdiv::analysis {

namespace {

using core::ComponentLoop;
using core::IntraTileSchedule;
using core::ParallelGranularity;
using core::ScheduleFamily;
using core::TileAspect;
using core::VariantConfig;
using kernels::kNumComp;
using kernels::readRegion;
using kernels::Stage;
using kernels::velocityComp;

constexpr StorageClass kShared = StorageClass::Shared;
constexpr StorageClass kPrivate = StorageClass::Private;

const char* dirName(int d) { return d == 0 ? "x" : (d == 1 ? "y" : "z"); }

FieldId cacheField(int d) {
  return d == 0 ? FieldId::CacheX
                : (d == 1 ? FieldId::CacheY : FieldId::CacheZ);
}

Access access(FieldId f, StorageClass s, int c0, int nc, const Box& b) {
  return Access{f, s, c0, nc, b};
}

/// Slot region of the co-dimension cache for direction d over cell region
/// `r`: the masked direction is projected out of slot space.
Box slotBox(int d, const Box& r) {
  IntVect lo = r.lo();
  IntVect hi = r.hi();
  lo[d] = 0;
  hi[d] = 0;
  return {lo, hi};
}

/// Tile extents of a tiled config over `valid` (mirrors
/// core::detail::makeTileSet, which is internal to src/core).
sched::TileSet makeTiles(const VariantConfig& cfg, const Box& valid) {
  IntVect tile;
  switch (cfg.aspect) {
  case TileAspect::Pencil:
    tile = IntVect(valid.size(0), cfg.tileSize, cfg.tileSize);
    break;
  case TileAspect::Slab:
    tile = IntVect(valid.size(0), valid.size(1), cfg.tileSize);
    break;
  case TileAspect::Cube:
  default:
    tile = IntVect::unit(cfg.tileSize);
    break;
  }
  return sched::TileSet(valid, tile);
}

// ---------------------------------------------------------------------------
// Stage emitters. Each mirrors one executor code path; `group` is the
// StageExec::scratchGroup of every stage it emits.
// ---------------------------------------------------------------------------

/// Serial series-of-loops pipeline over `region` (baselineBoxSerial /
/// basic-schedule overlapped tiles), temporaries in `scope`.
void emitBaselineSerial(WorkItem& item, const VariantConfig& cfg,
                        const Box& region, StorageClass scope, int group) {
  for (int d = 0; d < grid::SpaceDim; ++d) {
    const Box fb = region.faceBox(d);
    const int vd = velocityComp(d);
    {
      StageExec s;
      s.scratchGroup = group;
      s.reads.push_back(access(FieldId::Phi0, kShared, 0, kNumComp,
                               readRegion(Stage::EvalFlux1, d, fb)));
      s.writes.push_back(access(FieldId::Flux, scope, 0, kNumComp, fb));
      item.stages.push_back(std::move(s));
    }
    if (cfg.comp == ComponentLoop::Inside) {
      // CLI preserves the velocity face averages before EvalFlux2
      // overwrites the flux fab in place (the Velocity temporary).
      StageExec copy;
      copy.scratchGroup = group;
      copy.reads.push_back(access(FieldId::Flux, scope, vd, 1, fb));
      copy.writes.push_back(access(FieldId::Velocity, scope, 0, 1, fb));
      item.stages.push_back(std::move(copy));

      StageExec f2;
      f2.scratchGroup = group;
      f2.reads.push_back(access(FieldId::Velocity, scope, 0, 1, fb));
      f2.reads.push_back(access(FieldId::Flux, scope, 0, kNumComp, fb));
      f2.writes.push_back(access(FieldId::Flux, scope, 0, kNumComp, fb));
      item.stages.push_back(std::move(f2));

      StageExec acc;
      acc.scratchGroup = group;
      acc.reads.push_back(
          access(FieldId::Flux, scope, 0, kNumComp,
                 readRegion(Stage::FluxDifference, d, region)));
      acc.writes.push_back(
          access(FieldId::Phi1, kShared, 0, kNumComp, region));
      item.stages.push_back(std::move(acc));
    } else {
      // CLO multiplies the velocity component last, so the velocity
      // column survives in the flux fab until every other component has
      // consumed it (no Velocity temporary).
      auto emitComp = [&](int c) {
        StageExec f2;
        f2.scratchGroup = group;
        f2.reads.push_back(access(FieldId::Flux, scope, vd, 1, fb));
        f2.writes.push_back(access(FieldId::Flux, scope, c, 1, fb));
        item.stages.push_back(std::move(f2));

        StageExec acc;
        acc.scratchGroup = group;
        acc.reads.push_back(
            access(FieldId::Flux, scope, c, 1,
                   readRegion(Stage::FluxDifference, d, region)));
        acc.writes.push_back(access(FieldId::Phi1, kShared, c, 1, region));
        item.stages.push_back(std::move(acc));
      };
      for (int c = 0; c < kNumComp; ++c) {
        if (c != vd) {
          emitComp(c);
        }
      }
      emitComp(vd);
    }
  }
}

/// Serial shifted+fused sweep over `region` (shiftFuseBoxSerial / the
/// shift-fuse overlapped tiles). The scalar/row/plane carries are private
/// to the sweep and produced strictly before use by the lexicographic
/// traversal, so they are not modeled; the CLO velocity precompute is.
void emitFusedSerial(WorkItem& item, const VariantConfig& cfg,
                     const Box& region, StorageClass scope, int group) {
  if (cfg.comp == ComponentLoop::Outside) {
    StageExec pre;
    pre.scratchGroup = group;
    for (int d = 0; d < grid::SpaceDim; ++d) {
      const Box fb = region.faceBox(d);
      pre.reads.push_back(access(FieldId::Phi0, kShared, velocityComp(d), 1,
                                 readRegion(Stage::EvalFlux1, d, fb)));
      pre.writes.push_back(access(FieldId::Velocity, scope, d, 1, fb));
    }
    item.stages.push_back(std::move(pre));
  }
  StageExec sweep;
  sweep.scratchGroup = group;
  for (int d = 0; d < grid::SpaceDim; ++d) {
    sweep.reads.push_back(access(FieldId::Phi0, kShared, 0, kNumComp,
                                 readRegion(Stage::FusedCell, d, region)));
    if (cfg.comp == ComponentLoop::Outside) {
      sweep.reads.push_back(
          access(FieldId::Velocity, scope, d, 1, region.faceBox(d)));
    }
  }
  sweep.writes.push_back(
      access(FieldId::Phi1, kShared, 0, kNumComp, region));
  item.stages.push_back(std::move(sweep));
}

/// One blocked-wavefront tile sweep: fused over the tile, low-face fluxes
/// drawn from (and high-face fluxes deposited into) the box-global
/// co-dimension caches. `cacheComps` is kNumComp for CLI, 1 for the
/// per-component CLO passes.
StageExec blockedTileStage(const Box& tb, const IntVect& coords,
                           ComponentLoop comp, int c0, int cacheComps) {
  StageExec s;
  const bool cli = comp == ComponentLoop::Inside;
  for (int d = 0; d < grid::SpaceDim; ++d) {
    s.reads.push_back(access(FieldId::Phi0, kShared, cli ? 0 : c0,
                             cli ? kNumComp : 1,
                             readRegion(Stage::FusedCell, d, tb)));
    if (cli) {
      // fusedCellCLI also reads the velocity components at +/-2 offsets;
      // covered by the all-component access above.
    } else {
      s.reads.push_back(
          access(FieldId::Velocity, kShared, d, 1, tb.faceBox(d)));
    }
    if (coords[d] > 0) {
      // Entry cells consume the -d neighbor's deposited boundary fluxes.
      s.reads.push_back(
          access(cacheField(d), kShared, 0, cacheComps, slotBox(d, tb)));
    }
    s.writes.push_back(
        access(cacheField(d), kShared, 0, cacheComps, slotBox(d, tb)));
  }
  s.writes.push_back(
      access(FieldId::Phi1, kShared, c0, cli ? kNumComp : 1, tb));
  return s;
}

/// Whole-box velocity precompute, appended to a serial item (the serial
/// CLO blocked-wavefront path precomputes before sweeping tiles).
void emitVelocityPrecompute(WorkItem& item, const Box& valid) {
  StageExec pre;
  for (int d = 0; d < grid::SpaceDim; ++d) {
    const Box fb = valid.faceBox(d);
    pre.reads.push_back(access(FieldId::Phi0, kShared, velocityComp(d), 1,
                               readRegion(Stage::EvalFlux1, d, fb)));
    pre.writes.push_back(access(FieldId::Velocity, kShared, d, 1, fb));
  }
  item.stages.push_back(std::move(pre));
}

/// Slab-parallel velocity precompute phase (precomputeFaceVelocity).
Phase velocityPrecomputePhase(const Box& valid, int nThreads) {
  Phase phase;
  phase.name = "precompute-velocity";
  for (int tid = 0; tid < nThreads; ++tid) {
    WorkItem item;
    StageExec s;
    for (int d = 0; d < grid::SpaceDim; ++d) {
      const Box fb = sched::zSlab(valid.faceBox(d), nThreads, tid);
      if (fb.empty()) {
        continue;
      }
      s.reads.push_back(access(FieldId::Phi0, kShared, velocityComp(d), 1,
                               readRegion(Stage::EvalFlux1, d, fb)));
      s.writes.push_back(access(FieldId::Velocity, kShared, d, 1, fb));
    }
    if (!s.reads.empty()) {
      item.stages.push_back(std::move(s));
      phase.items.push_back(std::move(item));
    }
  }
  return phase;
}

/// A fused wavefront over `lattice` (cells or tile coordinates): front
/// index = x + y + z.
ConeCheck fusedCone(const Box& lattice) {
  ConeCheck cone;
  cone.lattice = lattice;
  cone.skew = IntVect::unit(1);
  return cone;
}

// ---------------------------------------------------------------------------
// Per-family lowerings.
// ---------------------------------------------------------------------------

void lowerBaseline(ScheduleModel& m, const VariantConfig& cfg,
                   const Box& valid, int nThreads) {
  if (cfg.par != ParallelGranularity::WithinBox) {
    Phase phase;
    phase.name = "serial";
    WorkItem item;
    emitBaselineSerial(item, cfg, valid, kPrivate, -1);
    phase.items.push_back(std::move(item));
    m.phases.push_back(std::move(phase));
    return;
  }

  // Within-box z-slab tasks, mirroring the phases of exec_baseline's
  // makePhases (one join between consecutive phases):
  // EvalFlux1 | B | EvalFlux2[c0] | B | FluxDiff[c0] EvalFlux2[c1] | B |
  // ... | FluxDiff[c3] EvalFlux2[vd] | B | FluxDiff[vd] | B | next d.
  // One item per slab worker tid that owns cells or z-faces, its stages
  // emitted by stagesOf(item, tid).
  const auto slabPhase = [&](const std::string& phaseName,
                             const auto& stagesOf) {
    Phase phase;
    phase.name = phaseName;
    for (int tid = 0; tid < nThreads; ++tid) {
      if (!sched::zSlab(valid, nThreads, tid).empty() ||
          !sched::zSlab(valid.faceBox(2), nThreads, tid).empty()) {
        WorkItem item;
        stagesOf(item, tid);
        phase.items.push_back(std::move(item));
      }
    }
    return phase;
  };

  for (int d = 0; d < grid::SpaceDim; ++d) {
    const Box fb = valid.faceBox(d);
    const int vd = velocityComp(d);
    const std::string dTag = std::string("d=") + dirName(d);

    auto faceSlab = [&](int tid) {
      return sched::zSlab(fb, nThreads, tid);
    };
    auto cellSlab = [&](int tid) {
      return sched::zSlab(valid, nThreads, tid);
    };
    auto evalFlux1Stage = [&](int tid) {
      StageExec s;
      s.reads.push_back(access(FieldId::Phi0, kShared, 0, kNumComp,
                               readRegion(Stage::EvalFlux1, d,
                                          faceSlab(tid))));
      s.writes.push_back(
          access(FieldId::Flux, kShared, 0, kNumComp, faceSlab(tid)));
      return s;
    };
    auto fluxDiffStage = [&](int tid, int c, int nc) {
      StageExec s;
      s.reads.push_back(
          access(FieldId::Flux, kShared, c, nc,
                 readRegion(Stage::FluxDifference, d, cellSlab(tid))));
      s.writes.push_back(
          access(FieldId::Phi1, kShared, c, nc, cellSlab(tid)));
      return s;
    };

    if (cfg.comp == ComponentLoop::Inside) {
      m.phases.push_back(slabPhase(
          "baseline " + dTag + " face passes", [&](WorkItem& item, int tid) {
            item.stages.push_back(evalFlux1Stage(tid));
            StageExec copy;
            copy.reads.push_back(
                access(FieldId::Flux, kShared, vd, 1, faceSlab(tid)));
            copy.writes.push_back(
                access(FieldId::Velocity, kShared, 0, 1, faceSlab(tid)));
            item.stages.push_back(std::move(copy));
            StageExec f2;
            f2.reads.push_back(
                access(FieldId::Velocity, kShared, 0, 1, faceSlab(tid)));
            f2.reads.push_back(
                access(FieldId::Flux, kShared, 0, kNumComp, faceSlab(tid)));
            f2.writes.push_back(
                access(FieldId::Flux, kShared, 0, kNumComp, faceSlab(tid)));
            item.stages.push_back(std::move(f2));
          }));
      m.phases.push_back(slabPhase(
          "baseline " + dTag + " accumulate", [&](WorkItem& item, int tid) {
            item.stages.push_back(fluxDiffStage(tid, 0, kNumComp));
          }));
      continue;
    }

    // CLO: the velocity component is consumed by every other component's
    // EvalFlux2 and multiplied last.
    m.phases.push_back(slabPhase(
        "baseline " + dTag + " EvalFlux1", [&](WorkItem& item, int tid) {
          item.stages.push_back(evalFlux1Stage(tid));
        }));

    std::vector<int> order;
    for (int c = 0; c < kNumComp; ++c) {
      if (c != vd) {
        order.push_back(c);
      }
    }
    order.push_back(vd);

    auto evalFlux2Stage = [&](int tid, int c) {
      StageExec s;
      s.reads.push_back(
          access(FieldId::Flux, kShared, vd, 1, faceSlab(tid)));
      s.writes.push_back(
          access(FieldId::Flux, kShared, c, 1, faceSlab(tid)));
      return s;
    };

    int prev = -1;
    for (int c : order) {
      m.phases.push_back(slabPhase(
          "baseline " + dTag + " pipeline c=" + std::to_string(c),
          [&](WorkItem& item, int tid) {
            if (prev >= 0) {
              item.stages.push_back(fluxDiffStage(tid, prev, 1));
            }
            item.stages.push_back(evalFlux2Stage(tid, c));
          }));
      prev = c;
    }
    m.phases.push_back(slabPhase(
        "baseline " + dTag + " accumulate c=" + std::to_string(vd),
        [&](WorkItem& item, int tid) {
          item.stages.push_back(fluxDiffStage(tid, vd, 1));
        }));
  }
}

void lowerShiftFuse(ScheduleModel& m, const VariantConfig& cfg,
                    const Box& valid, int nThreads) {
  if (cfg.par != ParallelGranularity::WithinBox) {
    Phase phase;
    phase.name = "serial";
    WorkItem item;
    emitFusedSerial(item, cfg, valid, kPrivate, -1);
    phase.items.push_back(std::move(item));
    m.phases.push_back(std::move(phase));
    return;
  }

  // Per-iteration cell wavefront: its fronts are symbolic.
  m.cones.push_back(fusedCone(valid));

  const bool clo = cfg.comp == ComponentLoop::Outside;
  if (clo) {
    m.phases.push_back(velocityPrecomputePhase(valid, nThreads));
  }
  const int sweeps = clo ? kNumComp : 1;
  for (int c = 0; c < sweeps; ++c) {
    Phase phase;
    phase.name = clo ? "fused wavefront c=" + std::to_string(c)
                     : "fused wavefront";
    WorkItem item;
    StageExec s;
    for (int d = 0; d < grid::SpaceDim; ++d) {
      s.reads.push_back(access(FieldId::Phi0, kShared, clo ? c : 0,
                               clo ? 1 : kNumComp,
                               readRegion(Stage::FusedCell, d, valid)));
      if (clo) {
        s.reads.push_back(
            access(FieldId::Velocity, kShared, d, 1, valid.faceBox(d)));
      }
      s.writes.push_back(access(cacheField(d), kShared, 0,
                                clo ? 1 : kNumComp, slotBox(d, valid)));
    }
    s.writes.push_back(
        access(FieldId::Phi1, kShared, clo ? c : 0, clo ? 1 : kNumComp,
               valid));
    item.stages.push_back(std::move(s));
    phase.items.push_back(std::move(item));
    m.phases.push_back(std::move(phase));
  }
}

void lowerBlockedWF(ScheduleModel& m, const VariantConfig& cfg,
                    const Box& valid, int nThreads) {
  const sched::TileSet tiles = makeTiles(cfg, valid);
  const bool cli = cfg.comp == ComponentLoop::Inside;
  const int cacheComps = cli ? kNumComp : 1;
  const bool parallel =
      cfg.par == ParallelGranularity::WithinBox && nThreads > 1;

  if (!parallel) {
    // Serial lexicographic tile order (a topological order of the
    // inter-tile carry dependences).
    Phase phase;
    phase.name = "serial tiles";
    WorkItem item;
    if (!cli) {
      emitVelocityPrecompute(item, valid);
    }
    const int sweeps = cli ? 1 : kNumComp;
    for (int c = 0; c < sweeps; ++c) {
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        item.stages.push_back(blockedTileStage(
            tiles.tileBox(t), tiles.tileCoords(t), cfg.comp, c, cacheComps));
      }
    }
    phase.items.push_back(std::move(item));
    m.phases.push_back(std::move(phase));
    return;
  }

  // Tile wavefronts: symbolic cone over tile coordinates, plus the
  // explicit front decomposition whose phases the cost model prices.
  m.cones.push_back(
      fusedCone(Box(IntVect::zero(), tiles.gridSize() - IntVect::unit(1))));

  if (!cli) {
    m.phases.push_back(velocityPrecomputePhase(valid, nThreads));
  }
  const sched::TileWavefronts fronts(tiles);
  const int sweeps = cli ? 1 : kNumComp;
  for (int c = 0; c < sweeps; ++c) {
    for (std::size_t w = 0; w < fronts.count(); ++w) {
      Phase phase;
      phase.name = (cli ? std::string("blocked-wf front ")
                        : "blocked-wf c=" + std::to_string(c) +
                              " front ") +
                   std::to_string(w);
      for (std::size_t t : fronts.front(w)) {
        WorkItem item;
        item.stages.push_back(blockedTileStage(
            tiles.tileBox(t), tiles.tileCoords(t), cfg.comp, c, cacheComps));
        phase.items.push_back(std::move(item));
      }
      m.phases.push_back(std::move(phase));
    }
  }
}

void lowerOverlapped(ScheduleModel& m, const VariantConfig& cfg,
                     const Box& valid) {
  const sched::TileSet tiles = makeTiles(cfg, valid);
  const bool parallel = cfg.par != ParallelGranularity::OverBoxes;

  Phase phase;
  phase.name = parallel ? "overlapped tiles (concurrent)"
                        : "overlapped tiles (serial)";
  auto tileItem = [&](std::size_t t) {
    WorkItem item;
    const Box tb = tiles.tileBox(t);
    const int group = static_cast<int>(t);
    if (cfg.intra == IntraTileSchedule::Basic) {
      emitBaselineSerial(item, cfg, tb, kPrivate, group);
    } else {
      emitFusedSerial(item, cfg, tb, kPrivate, group);
    }
    return item;
  };

  if (parallel) {
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      phase.items.push_back(tileItem(t));
    }
  } else {
    // Serial traversal (lexicographic or Morton — legality is order-
    // independent because tiles recompute their whole flux need): one
    // item running every tile in sequence.
    WorkItem item;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      WorkItem tileStages = tileItem(t);
      for (auto& s : tileStages.stages) {
        item.stages.push_back(std::move(s));
      }
    }
    phase.items.push_back(std::move(item));
  }
  m.phases.push_back(std::move(phase));
}

/// Display label used for CostReport::variant (kept independent of
/// core::VariantConfig::name() so the analysis library layers strictly
/// below fluxdiv_core).
std::string variantLabel(const VariantConfig& cfg) {
  std::string n;
  switch (cfg.family) {
  case ScheduleFamily::SeriesOfLoops:
    n = "Baseline";
    break;
  case ScheduleFamily::ShiftFuse:
    n = "Shift-Fuse";
    break;
  case ScheduleFamily::BlockedWavefront:
    n = "Blocked WF";
    break;
  case ScheduleFamily::OverlappedTiles:
    n = cfg.intra == IntraTileSchedule::Basic ? "Basic-Sched OT"
                                              : "Shift-Fuse OT";
    break;
  }
  if (cfg.tileSize > 0) {
    n += "-" + std::to_string(cfg.tileSize);
  }
  n += cfg.comp == ComponentLoop::Inside ? "-CLI" : "-CLO";
  switch (cfg.par) {
  case ParallelGranularity::OverBoxes:
    n += ": P>=Box";
    break;
  case ParallelGranularity::WithinBox:
    n += ": P<Box";
    break;
  case ParallelGranularity::HybridBoxTile:
    n += ": P=Box*Tile";
    break;
  }
  return n;
}

} // namespace

ScheduleModel lowerVariant(const VariantConfig& cfg, const Box& valid,
                           int nThreads) {
  const bool tiled = cfg.family == ScheduleFamily::BlockedWavefront ||
                     cfg.family == ScheduleFamily::OverlappedTiles;
  if (tiled && cfg.tileSize <= 0) {
    throw std::invalid_argument(
        "lowerVariant: tiled family needs a positive tile size");
  }
  if (cfg.par == ParallelGranularity::HybridBoxTile &&
      cfg.family != ScheduleFamily::OverlappedTiles) {
    throw std::invalid_argument(
        "lowerVariant: hybrid granularity requires independent tiles");
  }
  if (nThreads < 1) {
    throw std::invalid_argument("lowerVariant: nThreads must be >= 1");
  }

  ScheduleModel m;
  m.variant = variantLabel(cfg);
  m.valid = valid;
  switch (cfg.family) {
  case ScheduleFamily::SeriesOfLoops:
    lowerBaseline(m, cfg, valid, nThreads);
    break;
  case ScheduleFamily::ShiftFuse:
    lowerShiftFuse(m, cfg, valid, nThreads);
    break;
  case ScheduleFamily::BlockedWavefront:
    lowerBlockedWF(m, cfg, valid, nThreads);
    break;
  case ScheduleFamily::OverlappedTiles:
    lowerOverlapped(m, cfg, valid);
    break;
  }
  return m;
}

} // namespace fluxdiv::analysis
