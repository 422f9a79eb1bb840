#include "core/runner.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>

#include "core/exec_common.hpp"

#ifdef FLUXDIV_VERIFY
#include "analysis/kernelcheck.hpp"
#include "analysis/verifygate.hpp"
#include "core/kernelshapes.hpp"
#endif

namespace fluxdiv::core {

#ifdef FLUXDIV_SHADOW_CHECK
using detail::throwOnShadowViolations;
#endif

using detail::Box;
using detail::FArrayBox;
using grid::LevelData;
using grid::Real;

struct FluxDivRunner::Graphs {
  detail::RunnerCall call;
  std::unique_ptr<TaskPool> pool;
  /// Keyed by (nBoxes, box extents).
  std::map<std::array<std::size_t, 4>, TaskGraph> built;
  ReplayMode replay;
};

FluxDivRunner::FluxDivRunner(VariantConfig cfg, int nThreads)
    : cfg_(cfg), nThreads_(nThreads), ws_(nThreads),
      graphs_(std::make_unique<Graphs>()) {
  if (nThreads < 1) {
    throw std::invalid_argument("FluxDivRunner: nThreads must be >= 1");
  }
  graphs_->call.ws = &ws_;
}

FluxDivRunner::~FluxDivRunner() = default;

void FluxDivRunner::prepare() {
#ifdef FLUXDIV_VERIFY
  if (kernelsVerified_) {
    return;
  }
  // The probe executes this variant's real code path through a fresh
  // runner, whose runBox re-enters this gate under the same config name;
  // VerifyGate lets that same-thread re-entrant use through, which
  // terminates the recursion; a concurrent runner of the same config waits
  // for the probe's verdict instead of probing twice. Process-wide:
  // footprints depend only on the config.
  static analysis::VerifyGate gate;
  gate.verifyOnce(cfg_.name(), [this] {
    analysis::ProbeOptions opts;
    // Smallest box the config accepts; sampled probing keeps the one-time
    // gate cheap enough for Debug test runs.
    opts.boxSize = std::max(6, cfg_.tileSize);
    opts.exhaustiveSlotLimit = 0;
    opts.sampleTarget = 400;
    analysis::throwOnDiagnostics(
        "kernel contract verification failed for variant '" + cfg_.name() +
            "'",
        analysis::checkKernelFootprints(
            analysis::inferFootprint(makeVariantShape(cfg_, nThreads_),
                                     opts))
            .diagnostics);
  });
  kernelsVerified_ = true;
#endif
}

TaskGraph& FluxDivRunner::graphFor(const Box& valid, std::size_t nBoxes) {
  const grid::IntVect ext = valid.size();
  const std::array<std::size_t, 4> key{
      nBoxes, static_cast<std::size_t>(ext[0]),
      static_cast<std::size_t>(ext[1]), static_cast<std::size_t>(ext[2])};
  if (const auto it = graphs_->built.find(key); it != graphs_->built.end()) {
    return it->second;
  }
  if (!cfg_.validFor(valid.size(0))) {
    throw std::invalid_argument("variant '" + cfg_.name() +
                                "' is not valid for this box size");
  }
  prepare();
  const Box shape(grid::IntVect::zero(), ext - grid::IntVect::unit(1));
  const detail::RunnerCall& call = graphs_->call;
  TaskGraph graph;
  switch (cfg_.par) {
  case ParallelGranularity::OverBoxes:
    // The Chombo/MPI proxy: one task per box (Sec. I, III-C).
    for (std::size_t b = 0; b < nBoxes; ++b) {
      graph.addTask(
          [this, &call, b](int worker) {
            const detail::RunnerCall::BoxRef& box = call.boxes[b];
            detail::runBoxSerialDispatch(cfg_, *box.phi0, *box.phi1,
                                         box.valid, ws_[worker], call.scale);
          },
          static_cast<int>(b % static_cast<std::size_t>(nThreads_)));
    }
    break;
  case ParallelGranularity::HybridBoxTile:
    // Hierarchical-overlapped-tiling-style extension: the (box, tile)
    // pairs of the whole level are one pool of independent tasks. Only
    // defined for overlapped tiles (the only independent tiles).
    for (std::size_t b = 0; b < nBoxes; ++b) {
      detail::overlappedTileTasks(graph, cfg_, shape, nThreads_, call, b);
    }
    break;
  case ParallelGranularity::WithinBox:
    switch (cfg_.family) {
    case ScheduleFamily::SeriesOfLoops:
      detail::baselineBoxGraph(graph, cfg_, nThreads_, call);
      break;
    case ScheduleFamily::ShiftFuse:
      detail::shiftFuseBoxGraph(graph, cfg_, shape, nThreads_, call);
      break;
    case ScheduleFamily::BlockedWavefront:
      detail::blockedWFBoxGraph(graph, cfg_, shape, nThreads_, call);
      break;
    case ScheduleFamily::OverlappedTiles:
      detail::overlappedTileTasks(graph, cfg_, shape, nThreads_, call, 0);
      break;
    }
    break;
  }
  return graphs_->built.emplace(key, std::move(graph)).first->second;
}

void FluxDivRunner::dispatch(TaskGraph& graph) {
  if (!graphs_->pool) {
    graphs_->pool = std::make_unique<TaskPool>(nThreads_);
  }
  graphs_->pool->runReplay(graph, graphs_->replay);
}

void FluxDivRunner::runBox(const FArrayBox& phi0, FArrayBox& phi1,
                           const Box& valid, Real scale) {
  TaskGraph& graph = graphFor(valid, 1);
  graphs_->call.boxes.assign(1, {&phi0, &phi1, valid});
  graphs_->call.scale = scale;
#ifdef FLUXDIV_SHADOW_CHECK
  phi1.shadowBeginEpoch();
#endif
  dispatch(graph);
#ifdef FLUXDIV_SHADOW_CHECK
  throwOnShadowViolations(phi1, "runBox");
#endif
}

void FluxDivRunner::run(const LevelData& phi0, LevelData& phi1,
                        Real scale) {
  if (phi0.size() != phi1.size()) {
    throw std::invalid_argument("run: layout mismatch between levels");
  }
  if (phi0.nComp() != detail::kNumComp ||
      phi1.nComp() != detail::kNumComp) {
    throw std::invalid_argument("run: levels must have kNumComp components");
  }
  if (phi0.nGhost() < detail::kNumGhost) {
    throw std::invalid_argument("run: phi0 needs >= kNumGhost ghost layers");
  }
  if (phi0.size() == 0) {
    return;
  }
  // Parallelism within each box runs the boxes in sequence (the paper's
  // "parallelized over tiles within each box ... iterated over the boxes"
  // ordering, Sec. VI); the other granularities run the level as one
  // graph over the layout's equal-shaped boxes.
  const bool byBox = cfg_.par == ParallelGranularity::WithinBox;
  TaskGraph& graph = graphFor(phi0.validBox(0), byBox ? 1 : phi0.size());
#ifdef FLUXDIV_SHADOW_CHECK
  for (std::size_t b = 0; b < phi1.size(); ++b) {
    phi1[b].shadowBeginEpoch();
  }
#endif
  detail::RunnerCall& call = graphs_->call;
  call.scale = scale;
  call.boxes.clear();
  for (std::size_t b = 0; b < phi0.size(); ++b) {
    call.boxes.push_back({&phi0[b], &phi1[b], phi0.validBox(b)});
    if (byBox) {
      dispatch(graph);
      call.boxes.clear();
    }
  }
  if (!byBox) {
    dispatch(graph);
  }
#ifdef FLUXDIV_SHADOW_CHECK
  for (std::size_t b = 0; b < phi1.size(); ++b) {
    throwOnShadowViolations(phi1[b], "run");
  }
#endif
}

void detail::runReplayed(FluxDivRunner& runner, const LevelData& phi0,
                         LevelData& phi1, const ReplayMode& mode,
                         Real scale) {
  struct Restore {
    ReplayMode& replay;
    ~Restore() { replay = ReplayMode{}; }
  } restore{runner.graphs_->replay};
  restore.replay = mode;
  runner.run(phi0, phi1, scale);
}

} // namespace fluxdiv::core
