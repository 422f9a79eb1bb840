// Overlapped tiles (paper Sec. IV-D, Fig. 8c): every tile computes all of
// the face fluxes it needs — including fluxes on shared tile boundaries,
// which are recomputed by both neighbors — so tiles carry no inter-tile
// dependencies and all run concurrently. The intra-tile schedule is either
// the series-of-loops baseline ("Basic-Sched OT") or the shifted-and-fused
// sweep ("Shift-Fuse OT"); both are exactly the per-box serial executors
// applied to a tile-sized region, which also yields the per-thread
// tile-sized temporary footprint of Table I row 4. The overlapped variants
// therefore inherit the pencil-vectorized inner loops of those executors
// (tiles keep the x direction whole under Pencil/Slab aspects, so pencils
// stay long; cube tiles trade pencil length for the paper's locality
// study, as before).

#include <omp.h>

#include "core/exec_common.hpp"

namespace fluxdiv::core::detail {

void overlappedRunTile(const VariantConfig& cfg, const FArrayBox& phi0,
                       FArrayBox& phi1, const Box& tileBox, Workspace& ws,
                       Real scale) {
  if (cfg.intra == IntraTileSchedule::Basic) {
    baselineBoxSerial(cfg, phi0, phi1, tileBox, ws, scale);
  } else {
    shiftFuseBoxSerial(cfg, phi0, phi1, tileBox, ws, scale);
  }
}

void overlappedBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                         FArrayBox& phi1, const Box& valid, Workspace& ws,
                         Real scale) {
  const sched::TileSet tiles = makeTileSet(cfg, valid);
  const auto traversal = sched::tileTraversal(
      tiles, cfg.order == TileOrder::Morton ? sched::TileOrder::Morton
                                            : sched::TileOrder::Lexicographic);
  for (std::size_t t : traversal) {
    overlappedRunTile(cfg, phi0, phi1, tiles.tileBox(t), ws, scale);
  }
}

void overlappedBoxParallel(const VariantConfig& cfg, const FArrayBox& phi0,
                           FArrayBox& phi1, const Box& valid,
                           WorkspacePool& pool, int nThreads, Real scale) {
  const sched::TileSet tiles = makeTileSet(cfg, valid);
  const auto traversal = sched::tileTraversal(
      tiles, cfg.order == TileOrder::Morton ? sched::TileOrder::Morton
                                            : sched::TileOrder::Lexicographic);
  FLUXDIV_SHADOW_PREPARE(phi1);
#pragma omp parallel num_threads(nThreads)
  {
    Workspace& ws = pool[omp_get_thread_num()];
#pragma omp for schedule(dynamic)
    for (std::size_t t = 0; t < traversal.size(); ++t) {
      overlappedRunTile(cfg, phi0, phi1, tiles.tileBox(traversal[t]), ws,
                        scale);
    }
  }
}

} // namespace fluxdiv::core::detail
