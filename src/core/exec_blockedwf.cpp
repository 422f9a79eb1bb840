// Blocked wavefront schedule (paper Sec. IV-C, Fig. 8b): the box is tiled,
// each tile runs the shifted-and-fused sweep, and tiles *share* boundary
// fluxes through co-dimension caches — which induces dependencies along
// +x/+y/+z between tiles and forces wavefront execution over tiles.
// Within one tile wavefront, tiles have pairwise-distinct orthogonal
// coordinates in every direction, so their cache slots are disjoint and
// they can execute concurrently: the within-box schedule runs one task per
// tile and front, each front after the one before.
//
// Tile sweeps are vectorized one x-row at a time (kernels/pencil.hpp).
// The schedule is untouched: boundary fluxes are still *read from* and
// *deposited into* the box-global caches (never recomputed across tile
// boundaries), so the sharing/recomputation structure the legality checker
// and cost model reason about is exactly the seed's. Only the within-row
// carries become pencils: the x carry is a per-row (tnx+1)-face flux
// scratch seeded from the cache slot and written back from its last entry,
// and the y/z carries are contiguous cache rows rolled forward by
// fusedFaceDiffPencil. To make those cache rows contiguous per component,
// the CLI caches are laid out component-major (c slowest); the slot set
// per (tile, front) — hence the disjointness argument — is unchanged.

#include "core/exec_fused.hpp"
#include "kernels/pencil.hpp"

namespace fluxdiv::core::detail {

namespace {

namespace pencil = kernels::pencil;

/// Fused sweep of one tile, component loop inside, low-face fluxes drawn
/// from (and high-face fluxes deposited into) the box-global co-dimension
/// caches. `fresh` applies only on the *box* boundary; on interior tile
/// boundaries the cache slot was written by the -d neighbor tile.
/// Cache layouts (component-major): cacheX[(c*nz + kk)*ny + jj],
/// cacheY[(c*nz + kk)*nx + ii], cacheZ[(c*ny + jj)*nx + ii].
/// `fface`/`hi` are per-worker row scratch of >= nx+1 entries each.
void sweepTileCLI(const FArrayBox& phi0, FArrayBox& phi1, const Box& tb,
                  const Box& valid, Real* cacheX, Real* cacheY,
                  Real* cacheZ, Real* fface, Real* hi, Real scale) {
  FLUXDIV_SHADOW_WRITE(phi1, tb, 0, kNumComp);
  const Idx ip(phi0);
  const Idx io(phi1);
  const ConstComps p(phi0);
  const MutComps out(phi1);
  const int nx = valid.size(0);
  const int ny = valid.size(1);
  const int nz = valid.size(2);
  const int ii0 = tb.lo(0) - valid.lo(0);
  const int tnx = tb.size(0);
  for (int k = tb.lo(2); k <= tb.hi(2); ++k) {
    const int kk = k - valid.lo(2);
    for (int j = tb.lo(1); j <= tb.hi(1); ++j) {
      const int jj = j - valid.lo(1);
      const std::int64_t a = ip(tb.lo(0), j, k);
      const std::int64_t o = io(tb.lo(0), j, k);
      for (int c = 0; c < kNumComp; ++c) {
        // x: seed face 0 from the cache (the -x neighbor's deposit) or
        // fresh on the box boundary, compute the tnx high faces, then
        // write the last face back for the +x neighbor.
        Real* slotX =
            cacheX + (static_cast<std::size_t>(c) * nz + kk) * ny + jj;
        fface[0] = ii0 == 0 ? kernels::faceFlux(p[c] + a, p[1] + a, 1)
                            : *slotX;
        pencil::faceFluxPencil(p[c] + a + 1, p[1] + a + 1, 1, tnx,
                               fface + 1);
        pencil::accumulatePencil(fface, 1, tnx, scale, out[c] + o);
        *slotX = fface[tnx];
        // y: the cache row holds the -y neighbor's fluxes (or fresh on
        // the box boundary); fusedFaceDiffPencil deposits ours for +y.
        Real* carryY = cacheY +
                       (static_cast<std::size_t>(c) * nz + kk) * nx + ii0;
        if (jj == 0) {
          pencil::faceFluxPencil(p[c] + a, p[2] + a, ip.sy, tnx, carryY);
        }
        pencil::faceFluxPencil(p[c] + a + ip.sy, p[2] + a + ip.sy, ip.sy,
                               tnx, hi);
        pencil::fusedFaceDiffPencil(hi, carryY, tnx, scale, out[c] + o);
        // z: same through the plane cache.
        Real* carryZ = cacheZ +
                       (static_cast<std::size_t>(c) * ny + jj) * nx + ii0;
        if (kk == 0) {
          pencil::faceFluxPencil(p[c] + a, p[3] + a, ip.sz, tnx, carryZ);
        }
        pencil::faceFluxPencil(p[c] + a + ip.sz, p[3] + a + ip.sz, ip.sz,
                               tnx, hi);
        pencil::fusedFaceDiffPencil(hi, carryZ, tnx, scale, out[c] + o);
      }
    }
  }
}

/// Fused sweep of one tile for a single component (component loop outside
/// the whole tile-wavefront execution — the "3D flux cache" variant).
/// Single-entry caches: cacheX[kk*ny + jj], cacheY[kk*nx + ii],
/// cacheZ[jj*nx + ii] (the seed layout, already row-contiguous).
void sweepTileCLO(const FArrayBox& phi0, FArrayBox& phi1, int c,
                  const FArrayBox& vel, const Box& tb, const Box& valid,
                  Real* cacheX, Real* cacheY, Real* cacheZ, Real* fface,
                  Real* hi, Real scale) {
  FLUXDIV_SHADOW_WRITE(phi1, tb, c, 1);
  const Idx ip(phi0);
  const Idx io(phi1);
  const Idx iv(vel);
  const Real* pc = phi0.dataPtr(c);
  Real* outc = phi1.dataPtr(c);
  const Real* velx = vel.dataPtr(0);
  const Real* vely = vel.dataPtr(1);
  const Real* velz = vel.dataPtr(2);
  const int nx = valid.size(0);
  const int ny = valid.size(1);
  const int ii0 = tb.lo(0) - valid.lo(0);
  const int tnx = tb.size(0);
  for (int k = tb.lo(2); k <= tb.hi(2); ++k) {
    const int kk = k - valid.lo(2);
    for (int j = tb.lo(1); j <= tb.hi(1); ++j) {
      const int jj = j - valid.lo(1);
      const std::int64_t a = ip(tb.lo(0), j, k);
      const std::int64_t o = io(tb.lo(0), j, k);
      const std::int64_t av = iv(tb.lo(0), j, k);
      Real* slotX = cacheX + static_cast<std::size_t>(kk) * ny + jj;
      fface[0] = ii0 == 0 ? kernels::evalFlux2(
                                kernels::evalFlux1(pc + a, 1), velx[av])
                          : *slotX;
      pencil::evalFlux1MulPencil(pc + a + 1, 1, velx + av + 1, tnx,
                                 fface + 1);
      pencil::accumulatePencil(fface, 1, tnx, scale, outc + o);
      *slotX = fface[tnx];
      Real* carryY = cacheY + static_cast<std::size_t>(kk) * nx + ii0;
      if (jj == 0) {
        pencil::evalFlux1MulPencil(pc + a, ip.sy, vely + av, tnx, carryY);
      }
      pencil::evalFlux1MulPencil(pc + a + ip.sy, ip.sy, vely + av + iv.sy,
                                 tnx, hi);
      pencil::fusedFaceDiffPencil(hi, carryY, tnx, scale, outc + o);
      Real* carryZ = cacheZ + static_cast<std::size_t>(jj) * nx + ii0;
      if (kk == 0) {
        pencil::evalFlux1MulPencil(pc + a, ip.sz, velz + av, tnx, carryZ);
      }
      pencil::evalFlux1MulPencil(pc + a + ip.sz, ip.sz, velz + av + iv.sz,
                                 tnx, hi);
      pencil::fusedFaceDiffPencil(hi, carryZ, tnx, scale, outc + o);
    }
  }
}

/// Sweep tile `tb` of `valid` (for component `c` under CLO) with the
/// caller's row scratch: two buffers of nx+1 entries, the x face row and
/// the high-face y/z row.
void sweepTile(const VariantConfig& cfg, const FArrayBox& phi0,
               FArrayBox& phi1, int c, const Box& tb, const Box& valid,
               const WavefrontScratch& s, Real* rows, Real scale) {
  Real* fface = rows;
  Real* hi = rows + valid.size(0) + 1;
  if (cfg.comp == ComponentLoop::Inside) {
    sweepTileCLI(phi0, phi1, tb, valid, s.cacheX, s.cacheY, s.cacheZ, fface,
                 hi, scale);
  } else {
    sweepTileCLO(phi0, phi1, c, *s.vel, tb, valid, s.cacheX, s.cacheY,
                 s.cacheZ, fface, hi, scale);
  }
}

std::size_t rowScratchLen(const Box& valid) {
  return 2 * (static_cast<std::size_t>(valid.size(0)) + 1);
}

} // namespace

void blockedWFBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                        FArrayBox& phi1, const Box& valid, Workspace& ws,
                        Real scale) {
  const sched::TileSet tiles = makeTileSet(cfg, valid);
  const sched::TileWavefronts fronts(tiles);
  const WavefrontScratch s(cfg, valid, ws);
  Real* rows = ws.buffer(Slot::Extra, rowScratchLen(valid));
  if (s.vel != nullptr) {
    precomputeFaceVelocity(phi0, *s.vel, valid, 1, 0);
  }
  // Front by front is a topological order of the tile dependences.
  const int sweeps = cfg.comp == ComponentLoop::Outside ? kNumComp : 1;
  for (int c = 0; c < sweeps; ++c) {
    for (std::size_t w = 0; w < fronts.count(); ++w) {
      for (const std::size_t t : fronts.front(w)) {
        sweepTile(cfg, phi0, phi1, c, tiles.tileBox(t), valid, s, rows,
                  scale);
      }
    }
  }
}

void blockedWFBoxGraph(TaskGraph& graph, const VariantConfig& cfg,
                       const Box& shape, int nThreads,
                       const RunnerCall& call) {
  PhaseChain chain(graph);
  const auto scratch = beginWavefrontGraph(chain, cfg, nThreads, call);
  const sched::TileSet tiles = makeTileSet(cfg, shape);
  const sched::TileWavefronts fronts(tiles);
  const int sweeps = cfg.comp == ComponentLoop::Outside ? kNumComp : 1;
  for (int c = 0; c < sweeps; ++c) {
    for (std::size_t w = 0; w < fronts.count(); ++w) {
      for (const std::size_t t : fronts.front(w)) {
        chain.add(
            [&cfg, &call, scratch, c, tile = tiles.tileBox(t)](int worker) {
              const RunnerCall::BoxRef& b = call.boxes[0];
              Real* rows = (*call.ws)[worker].buffer(Slot::Extra,
                                                     rowScratchLen(b.valid));
              sweepTile(cfg, *b.phi0, *b.phi1, c, tile.shift(b.valid.lo()),
                        b.valid, *scratch, rows, call.scale);
            },
            static_cast<int>(t) % nThreads);
      }
      chain.barrier();
    }
  }
}

} // namespace fluxdiv::core::detail
