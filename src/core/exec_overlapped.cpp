// Overlapped tiles (paper Sec. IV-D, Fig. 8c): every tile computes all of
// the face fluxes it needs — including fluxes on shared tile boundaries,
// which are recomputed by both neighbors — so tiles carry no inter-tile
// dependencies and all run concurrently. The intra-tile schedule is either
// the series-of-loops baseline ("Basic-Sched OT") or the shifted-and-fused
// sweep ("Shift-Fuse OT"); both are exactly the per-box serial executors
// applied to a tile-sized region, which also yields the per-worker
// tile-sized temporary footprint of Table I row 4. The overlapped variants
// therefore inherit the pencil-vectorized inner loops of those executors
// (tiles keep the x direction whole under Pencil/Slab aspects, so pencils
// stay long; cube tiles trade pencil length for the paper's locality
// study, as before).

#include "core/exec_common.hpp"

namespace fluxdiv::core::detail {

namespace {

void overlappedRunTile(const VariantConfig& cfg, const FArrayBox& phi0,
                       FArrayBox& phi1, const Box& tileBox, Workspace& ws,
                       Real scale) {
  if (cfg.intra == IntraTileSchedule::Basic) {
    baselineBoxSerial(cfg, phi0, phi1, tileBox, ws, scale);
  } else {
    shiftFuseBoxSerial(cfg, phi0, phi1, tileBox, ws, scale);
  }
}

std::vector<std::size_t> traversal(const VariantConfig& cfg,
                                   const sched::TileSet& tiles) {
  return sched::tileTraversal(tiles, cfg.order == TileOrder::Morton
                                         ? sched::TileOrder::Morton
                                         : sched::TileOrder::Lexicographic);
}

} // namespace

void overlappedBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                         FArrayBox& phi1, const Box& valid, Workspace& ws,
                         Real scale) {
  const sched::TileSet tiles = makeTileSet(cfg, valid);
  for (std::size_t t : traversal(cfg, tiles)) {
    overlappedRunTile(cfg, phi0, phi1, tiles.tileBox(t), ws, scale);
  }
}

void overlappedTileTasks(TaskGraph& graph, const VariantConfig& cfg,
                         const Box& shape, int nThreads,
                         const RunnerCall& call, std::size_t box) {
  const sched::TileSet tiles = makeTileSet(cfg, shape);
  for (std::size_t t : traversal(cfg, tiles)) {
    graph.addTask(
        [&cfg, &call, box, tile = tiles.tileBox(t)](int worker) {
          const RunnerCall::BoxRef& b = call.boxes[box];
          overlappedRunTile(cfg, *b.phi0, *b.phi1, tile.shift(b.valid.lo()),
                            (*call.ws)[worker], call.scale);
        },
        static_cast<int>(graph.size()) % nThreads);
  }
}

} // namespace fluxdiv::core::detail
