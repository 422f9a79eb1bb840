#pragma once
// Internal helpers shared by the schedule-family executors. Not part of the
// public API (include only from src/core/*.cpp and white-box tests).

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/taskpool.hpp"
#include "core/variant.hpp"
#include "core/workspace.hpp"
#include "grid/farraybox.hpp"
#include "kernels/exemplar.hpp"
#include "sched/tiles.hpp"

namespace fluxdiv::core::detail {

/// Worker identity for shadow attribution: the task-pool worker id when
/// called from inside a TaskPool run; a caller outside the pool is
/// worker 0.
inline int shadowWorkerId() {
  const int worker = TaskPool::currentWorker();
  return worker >= 0 ? worker : 0;
}

} // namespace fluxdiv::core::detail

// Shadow-memory instrumentation of the executors' phi1 commits (see
// grid/shadow.hpp). Each expansion records "this writer wrote this region
// of these components in the current epoch"; the legal schedules keep
// every (cell, component) of the output single-writer per evaluation, so
// any cross-writer double write is a real race. The writer is the calling
// worker, or under FLUXDIV_SHADOW_WRITE_AS the schedule's own owner of the
// region (a z-slab, whose tasks may land on any worker but are ordered by
// the graph). Expands to nothing unless FLUXDIV_SHADOW_CHECK is on.
#ifdef FLUXDIV_SHADOW_CHECK
#include <stdexcept>

namespace fluxdiv::core::detail {

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

#define FLUXDIV_SHADOW_WRITE_AS(fab, region, c0, nc, writer)               \
  (fab).shadowRecordWrite((region), (c0), (nc), (writer))
#define FLUXDIV_SHADOW_WRITE(fab, region, c0, nc)                          \
  FLUXDIV_SHADOW_WRITE_AS(fab, region, c0, nc,                             \
                          ::fluxdiv::core::detail::shadowWorkerId())
#else
#define FLUXDIV_SHADOW_WRITE_AS(fab, region, c0, nc, writer) ((void)(writer))
#define FLUXDIV_SHADOW_WRITE(fab, region, c0, nc) ((void)0)
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

/// What a FluxDivRunner graph's tasks act on. The runner builds each
/// graph once per box shape (per layout for P>=Box and P=Box*Tile) and
/// points this at the current call before every dispatch, so tasks read
/// the call's fabs, valid boxes and scale and a repeated call rebuilds
/// nothing.
struct RunnerCall {
  struct BoxRef {
    const FArrayBox* phi0 = nullptr;
    FArrayBox* phi1 = nullptr;
    Box valid;
  };
  std::vector<BoxRef> boxes; ///< a within-box graph acts on boxes[0]
  Real scale = 1.0;
  WorkspacePool* ws = nullptr; ///< one Workspace per pool worker
};

/// Builds a graph as a chain of barrier-delimited phases: every task of a
/// phase waits for every task of the phase before it, which is what an
/// OpenMP team barrier between two stages of a schedule guarantees. A
/// phase of several tasks is joined through one empty task, so the edge
/// count stays linear in the task count.
class PhaseChain {
public:
  explicit PhaseChain(TaskGraph& graph) : graph_(graph) {}

  /// Add a task to the open phase.
  void add(TaskGraph::Fn fn, int owner = 0) {
    const int task = graph_.addTask(std::move(fn), owner);
    if (last_ >= 0) {
      graph_.addDep(last_, task);
    }
    open_.push_back(task);
  }

  /// Close the open phase: later tasks wait for all of it.
  void barrier() {
    if (open_.size() > 1) {
      const int join = graph_.addTask([](int) {});
      for (const int task : open_) {
        graph_.addDep(task, join);
      }
      open_.assign(1, join);
    }
    if (!open_.empty()) {
      last_ = open_.front();
      open_.clear();
    }
  }

private:
  TaskGraph& graph_;
  int last_ = -1; ///< the previous phase's only task, or its join
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Per-box entry points implemented in the exec_*.cpp files. All assume:
//   - phi0 covers valid.grow(kNumGhost) with ghosts filled,
//   - phi1 covers valid,
//   - both have kNumComp components.
// Serial variants run on the calling thread with its workspace. The
// *BoxGraph functions add a family's within-box (P<Box) schedule over one
// box of `shape`'s extents (zero origin) to a TaskGraph whose tasks act on
// call.boxes[0]; per-worker scratch comes from call.ws.
// ---------------------------------------------------------------------------

void baselineBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                       FArrayBox& phi1, const Box& valid, Workspace& ws,
                       Real scale);
void baselineBoxGraph(TaskGraph& graph, const VariantConfig& cfg,
                      int nThreads, const RunnerCall& call);

void shiftFuseBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                        FArrayBox& phi1, const Box& valid, Workspace& ws,
                        Real scale);
void shiftFuseBoxGraph(TaskGraph& graph, const VariantConfig& cfg,
                       const Box& shape, int nThreads,
                       const RunnerCall& call);

/// Consumer of the rows a streamed sweep (shiftFuseBoxRows) finishes.
class RowSink {
public:
  /// Where component c of output row (j, k) goes: valid.size(0) values,
  /// each written exactly once.
  virtual Real* row(int c, int j, int k) = 0;
  /// Row (c, j, k) is final; called before the sweep writes another row.
  virtual void finish(int c, int j, int k, Real* row) = 0;

protected:
  ~RowSink() = default;
};

/// The serial shifted-and-fused sweep of `valid` (shiftFuseBoxSerial's
/// schedule), streamed: each output row starts from +0.0 instead of
/// accumulating into phi1, goes to sink.row(c, j, k), and is handed to
/// sink.finish(c, j, k, row) as soon as it is final. Bit-identical to
/// shiftFuseBoxSerial into a zeroed phi1, the sign of a zero included.
void shiftFuseBoxRows(const VariantConfig& cfg, const FArrayBox& phi0,
                      const Box& valid, Workspace& ws, Real scale,
                      RowSink& sink);

void blockedWFBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                        FArrayBox& phi1, const Box& valid, Workspace& ws,
                        Real scale);
void blockedWFBoxGraph(TaskGraph& graph, const VariantConfig& cfg,
                       const Box& shape, int nThreads,
                       const RunnerCall& call);

void overlappedBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                         FArrayBox& phi1, const Box& valid, Workspace& ws,
                         Real scale);
/// One task per overlapped tile of call.boxes[box]: the within-box
/// schedule for box 0, and the P=Box*Tile level graph box by box.
void overlappedTileTasks(TaskGraph& graph, const VariantConfig& cfg,
                         const Box& shape, int nThreads,
                         const RunnerCall& call, std::size_t box);

/// Serial dispatch of one whole box (or any rectangular subregion of one:
/// every family accumulates each cell's x, y, z flux differences in the
/// same per-cell order, so region decompositions are bit-identical). The
/// calling thread runs the family's serial schedule with workspace `ws`.
/// Shared by FluxDivRunner's over-boxes box tasks and the step-graph
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
