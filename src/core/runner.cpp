#include "core/runner.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>

#include "core/exec_common.hpp"

#ifdef FLUXDIV_VERIFY
#include "analysis/kernelcheck.hpp"
#include "analysis/lower.hpp"
#include "analysis/verifier.hpp"
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

FluxDivRunner::FluxDivRunner(VariantConfig cfg, int nThreads)
    : cfg_(cfg), nThreads_(nThreads), pool_(nThreads) {
  if (nThreads < 1) {
    throw std::invalid_argument("FluxDivRunner: nThreads must be >= 1");
  }
}

void FluxDivRunner::verifySchedule(const Box& valid) {
#ifdef FLUXDIV_VERIFY
  const grid::IntVect extents = valid.size();
  const std::string key = std::to_string(extents[0]) + "x" +
                          std::to_string(extents[1]) + "x" +
                          std::to_string(extents[2]);
  if (!scheduleGate_.shouldVerify(key)) {
    return;
  }
  const Box shape(grid::IntVect::zero(), extents - grid::IntVect::unit(1));
  const analysis::Diagnostic diag = analysis::ScheduleVerifier{}.verify(
      analysis::lowerVariant(cfg_, shape, nThreads_));
  if (!diag.ok()) {
    throw std::logic_error("schedule verification failed for variant '" +
                           cfg_.name() + "': " + diag.message());
  }
#else
  (void)valid;
#endif
}

void FluxDivRunner::verifyKernels() {
#ifdef FLUXDIV_VERIFY
  if (kernelsVerified_) {
    return;
  }
  kernelsVerified_ = true;
  // The probe executes this variant's real code path through a fresh
  // runner, whose runBox re-enters this gate under the same config name;
  // VerifyGate inserts the name before the probe runs, which terminates
  // the recursion (and keeps concurrent runners from probing the same
  // config twice). Process-wide: footprints depend only on the config.
  static analysis::VerifyGate gate;
  if (!gate.shouldVerify(cfg_.name())) {
    return;
  }
  analysis::ProbeOptions opts;
  // Smallest box the config accepts; sampled probing keeps the one-time
  // gate cheap enough for Debug test runs.
  opts.boxSize = std::max(6, cfg_.tileSize);
  opts.exhaustiveSlotLimit = 0;
  opts.sampleTarget = 400;
  const analysis::KernelCheckReport report = analysis::checkKernelFootprints(
      analysis::inferFootprint(makeVariantShape(cfg_, nThreads_), opts));
  if (!report.ok()) {
    throw std::logic_error("kernel contract verification failed for "
                           "variant '" +
                           cfg_.name() +
                           "': " + report.diagnostics.front().message());
  }
#endif
}

void FluxDivRunner::runBoxSerial(const FArrayBox& phi0, FArrayBox& phi1,
                                 const Box& valid, Workspace& ws,
                                 Real scale) {
  detail::runBoxSerialDispatch(cfg_, phi0, phi1, valid, ws, scale);
}

void FluxDivRunner::runBox(const FArrayBox& phi0, FArrayBox& phi1,
                           const Box& valid, Real scale) {
  if (!cfg_.validFor(valid.size(0))) {
    throw std::invalid_argument("variant '" + cfg_.name() +
                                "' is not valid for this box size");
  }
  prepare(valid);
#ifdef FLUXDIV_SHADOW_CHECK
  phi1.shadowBeginEpoch();
#endif
  if (cfg_.par == ParallelGranularity::OverBoxes) {
    runBoxSerial(phi0, phi1, valid, pool_[0], scale);
#ifdef FLUXDIV_SHADOW_CHECK
    throwOnShadowViolations(phi1, "runBox");
#endif
    return;
  }
  if (cfg_.par == ParallelGranularity::HybridBoxTile) {
    // For a single box the hybrid granularity degenerates to parallel
    // tiles within the box.
    detail::overlappedBoxParallel(cfg_, phi0, phi1, valid, pool_,
                                  nThreads_, scale);
#ifdef FLUXDIV_SHADOW_CHECK
    throwOnShadowViolations(phi1, "runBox");
#endif
    return;
  }
  // WithinBox keeps its schedule-specific code path even at one thread so
  // the measured temporary-storage footprint reflects the schedule.
  switch (cfg_.family) {
  case ScheduleFamily::SeriesOfLoops:
    detail::baselineBoxParallel(cfg_, phi0, phi1, valid, pool_, nThreads_,
                                scale);
    break;
  case ScheduleFamily::ShiftFuse:
    detail::shiftFuseBoxWavefront(cfg_, phi0, phi1, valid, pool_,
                                  nThreads_, scale);
    break;
  case ScheduleFamily::BlockedWavefront:
    detail::blockedWFBoxParallel(cfg_, phi0, phi1, valid, pool_, nThreads_,
                                 scale);
    break;
  case ScheduleFamily::OverlappedTiles:
    detail::overlappedBoxParallel(cfg_, phi0, phi1, valid, pool_,
                                  nThreads_, scale);
    break;
  }
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

  verifyKernels();
  for (std::size_t b = 0; b < phi0.size(); ++b) {
    verifySchedule(phi0.validBox(b)); // cached after the first box shape
  }
#ifdef FLUXDIV_SHADOW_CHECK
  for (std::size_t b = 0; b < phi1.size(); ++b) {
    phi1[b].shadowBeginEpoch();
  }
#endif

  if (cfg_.par == ParallelGranularity::OverBoxes) {
    // The Chombo/MPI proxy: one OpenMP thread per box (Sec. I, III-C).
#pragma omp parallel num_threads(nThreads_)
    {
      Workspace& ws = pool_[omp_get_thread_num()];
#pragma omp for schedule(dynamic)
      for (std::size_t b = 0; b < phi0.size(); ++b) {
        runBoxSerial(phi0[b], phi1[b], phi0.validBox(b), ws, scale);
      }
    }
  } else if (cfg_.par == ParallelGranularity::HybridBoxTile) {
    // Hierarchical-overlapped-tiling-style extension: flatten the
    // (box, tile) pairs of the whole level into one parallel loop, so the
    // scheduler can balance both across and within boxes. Only defined
    // for overlapped tiles (the only family whose tiles are independent).
    if (!cfg_.validFor(phi0.layout().boxSize()[0])) {
      throw std::invalid_argument("variant '" + cfg_.name() +
                                  "' is not valid for this layout");
    }
    const sched::TileSet tiles =
        detail::makeTileSet(cfg_, phi0.validBox(0));
    const std::size_t tilesPerBox = tiles.size();
#pragma omp parallel num_threads(nThreads_)
    {
      Workspace& ws = pool_[omp_get_thread_num()];
#pragma omp for schedule(dynamic) collapse(2)
      for (std::size_t b = 0; b < phi0.size(); ++b) {
        for (std::size_t t = 0; t < tilesPerBox; ++t) {
          // Tile boxes are relative to each box's own valid region.
          const grid::Box tileBox =
              tiles.tileBox(t).shift(phi0.validBox(b).lo() -
                                     phi0.validBox(0).lo());
          detail::overlappedRunTile(cfg_, phi0[b], phi1[b], tileBox, ws,
                                    scale);
        }
      }
    }
  } else {
    // Parallelism within each box; boxes processed in sequence (the paper
    // "parallelized over tiles within each box ... iterated over the
    // boxes" ordering, Sec. VI).
    for (std::size_t b = 0; b < phi0.size(); ++b) {
      runBox(phi0[b], phi1[b], phi0.validBox(b), scale);
    }
  }
#ifdef FLUXDIV_SHADOW_CHECK
  for (std::size_t b = 0; b < phi1.size(); ++b) {
    throwOnShadowViolations(phi1[b], "run");
  }
#endif
}

} // namespace fluxdiv::core
