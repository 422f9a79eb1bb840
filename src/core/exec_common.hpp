#pragma once
// Internal helpers shared by the schedule-family executors. Not part of the
// public API (include only from src/core/*.cpp and white-box tests).

#include <array>
#include <cstdint>

#include "core/variant.hpp"
#include "core/workspace.hpp"
#include "grid/farraybox.hpp"
#include "kernels/exemplar.hpp"
#include "sched/tiles.hpp"

// Shadow-memory instrumentation of the executors' phi1 commits (see
// grid/shadow.hpp). Each expansion records "the calling worker wrote this
// region of these components in the current epoch"; the legal schedules
// keep every (cell, component) of the output single-writer per
// evaluation, so any cross-worker double write is a real race. Expands to
// nothing unless FLUXDIV_SHADOW_CHECK is on.
#ifdef FLUXDIV_SHADOW_CHECK
#include <omp.h>

#include <stdexcept>
#include <string>

#include "core/taskpool.hpp"

namespace fluxdiv::core::detail {

/// Worker identity for shadow attribution: the task-pool worker id when
/// called from inside a TaskPool run, else the OpenMP thread id. Raw
/// std::threads all report omp_get_thread_num() == 0, which would fold
/// every pool worker into one and hide cross-worker races in the step
/// graphs.
inline int shadowWorkerId() {
  const int pool = TaskPool::currentWorker();
  return pool >= 0 ? pool : omp_get_thread_num();
}

/// Fail loudly when the shadow memory caught a race during the evaluation
/// that just finished. Call only after all workers have joined.
inline void throwOnShadowViolations(grid::FArrayBox& fab,
                                    const char* where) {
  grid::ShadowMemory& shadow = fab.shadow();
  if (shadow.violationCount() == 0) {
    return;
  }
  std::string msg = std::string(where) + ": shadow memory detected " +
                    std::to_string(shadow.violationCount()) +
                    " violation(s)";
  for (const auto& v : shadow.violations()) {
    msg += "\n  " + v.message();
  }
  throw std::runtime_error(msg);
}

} // namespace fluxdiv::core::detail

#define FLUXDIV_SHADOW_WRITE(fab, region, c0, nc)                          \
  (fab).shadowRecordWrite((region), (c0), (nc),                            \
                          ::fluxdiv::core::detail::shadowWorkerId())
// Shape a fab's lazily allocated shadow before a parallel region writes
// it; otherwise every worker's first FLUXDIV_SHADOW_WRITE would allocate
// and define it at once.
#define FLUXDIV_SHADOW_PREPARE(fab) ((void)(fab).shadow())
#else
#define FLUXDIV_SHADOW_WRITE(fab, region, c0, nc) ((void)0)
#define FLUXDIV_SHADOW_PREPARE(fab) ((void)0)
#endif

namespace fluxdiv::core::detail {

using grid::Box;
using grid::FArrayBox;
using grid::IntVect;
using grid::Real;
using kernels::kNumComp;
using kernels::kNumGhost;

/// Linear-offset calculator for one FArrayBox, hoisting the box origin and
/// strides out of hot loops (the paper's cached-pointer-offset idiom).
/// Thin executor-side name for the grid layer's single stride accessor, so
/// padded-pitch allocations are picked up everywhere automatically.
struct Idx : grid::FabIndexer {
  explicit Idx(const FArrayBox& f) : grid::FabIndexer(f.indexer()) {}
};

/// Component base pointers of a const solution fab.
struct ConstComps {
  std::array<const Real*, kNumComp> p{};
  explicit ConstComps(const FArrayBox& f) {
    for (int c = 0; c < kNumComp; ++c) {
      p[static_cast<std::size_t>(c)] = f.dataPtr(c);
    }
  }
  const Real* operator[](int c) const {
    return p[static_cast<std::size_t>(c)];
  }
};

/// Component base pointers of a mutable fab.
struct MutComps {
  std::array<Real*, kNumComp> p{};
  explicit MutComps(FArrayBox& f) {
    for (int c = 0; c < kNumComp; ++c) {
      p[static_cast<std::size_t>(c)] = f.dataPtr(c);
    }
  }
  Real* operator[](int c) const { return p[static_cast<std::size_t>(c)]; }
};

/// Tile decomposition of a valid region under a tiled config, honoring the
/// TileAspect extension (pencil/slab tiles keep leading directions whole).
inline sched::TileSet makeTileSet(const VariantConfig& cfg,
                                  const Box& valid) {
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

/// The face-centered superset box [lo, hi+1] that contains faceBox(d) for
/// every direction d. Baseline and basic-OT flux temporaries are allocated
/// on it — exactly Table I's (N+1)^3 (or (T+1)^3) footprint.
inline Box faceSupersetBox(const Box& b) {
  return {b.lo(), b.hi() + IntVect::unit(1)};
}

// ---------------------------------------------------------------------------
// Per-box entry points implemented in the exec_*.cpp files. All assume:
//   - phi0 covers valid.grow(kNumGhost) with ghosts filled,
//   - phi1 covers valid,
//   - both have kNumComp components.
// Serial variants take the calling thread's workspace. Parallel-within-box
// variants open their own OpenMP region with `nThreads` threads and draw
// per-thread scratch from `pool`.
// ---------------------------------------------------------------------------

void baselineBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                       FArrayBox& phi1, const Box& valid, Workspace& ws,
                       Real scale);
void baselineBoxParallel(const VariantConfig& cfg, const FArrayBox& phi0,
                         FArrayBox& phi1, const Box& valid,
                         WorkspacePool& pool, int nThreads, Real scale);

void shiftFuseBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                        FArrayBox& phi1, const Box& valid, Workspace& ws,
                        Real scale);
void shiftFuseBoxWavefront(const VariantConfig& cfg, const FArrayBox& phi0,
                           FArrayBox& phi1, const Box& valid,
                           WorkspacePool& pool, int nThreads, Real scale);

void blockedWFBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                        FArrayBox& phi1, const Box& valid, Workspace& ws,
                        Real scale);
void blockedWFBoxParallel(const VariantConfig& cfg, const FArrayBox& phi0,
                          FArrayBox& phi1, const Box& valid,
                          WorkspacePool& pool, int nThreads, Real scale);

/// One overlapped tile, runnable from any parallel context (used by the
/// hybrid box-x-tile granularity in the runner).
void overlappedRunTile(const VariantConfig& cfg, const FArrayBox& phi0,
                       FArrayBox& phi1, const Box& tileBox, Workspace& ws,
                       Real scale);

void overlappedBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                         FArrayBox& phi1, const Box& valid, Workspace& ws,
                         Real scale);
void overlappedBoxParallel(const VariantConfig& cfg, const FArrayBox& phi0,
                           FArrayBox& phi1, const Box& valid,
                           WorkspacePool& pool, int nThreads, Real scale);

/// Serial dispatch of one whole box (or any rectangular subregion of one:
/// every family accumulates each cell's x, y, z flux differences in the
/// same per-cell order, so region decompositions are bit-identical). The
/// calling thread runs the family's serial schedule with workspace `ws`.
/// Shared by FluxDivRunner's over-boxes level loop and the step-graph
/// executor's whole-box / logical-tile RHS tasks.
inline void runBoxSerialDispatch(const VariantConfig& cfg,
                                 const FArrayBox& phi0, FArrayBox& phi1,
                                 const Box& valid, Workspace& ws,
                                 Real scale) {
  switch (cfg.family) {
  case ScheduleFamily::SeriesOfLoops:
    baselineBoxSerial(cfg, phi0, phi1, valid, ws, scale);
    break;
  case ScheduleFamily::ShiftFuse:
    shiftFuseBoxSerial(cfg, phi0, phi1, valid, ws, scale);
    break;
  case ScheduleFamily::BlockedWavefront:
    blockedWFBoxSerial(cfg, phi0, phi1, valid, ws, scale);
    break;
  case ScheduleFamily::OverlappedTiles:
    overlappedBoxSerial(cfg, phi0, phi1, valid, ws, scale);
    break;
  }
}

} // namespace fluxdiv::core::detail
