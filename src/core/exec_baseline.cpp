// Series-of-loops baseline (paper Sec. IV-A, Fig. 6/7): for each direction,
// separate passes over faces (EvalFlux1), faces again (EvalFlux2), and cells
// (accumulation), with whole-box face-centered temporaries. Axes: component
// loop outside (CLO) or inside (CLI); parallelization over boxes (caller) or
// over z-slabs within the box.
//
// Inner loops go through the pencil layer (kernels/pencil.hpp): every pass
// walks whole unit-stride x-rows, so the stage structure the legality
// checker and cost model reason about — which pass touches which region,
// separated by which barriers — is exactly the seed's; only the per-row
// arithmetic is vectorized. CLI passes keep the component loop inside the
// j/k face loops (the axis under study) but hoist it out of the x-row so
// each (row, component) becomes one pencil; per (cell, component) the
// expressions and their evaluation order are unchanged.

#include <omp.h>

#include "core/exec_common.hpp"
#include "kernels/pencil.hpp"
#include "sched/partition.hpp"

namespace fluxdiv::core::detail {

namespace {

using sched::zSlab;
namespace pencil = kernels::pencil;

/// EvalFlux1 pass for component c over face region `fb` of direction d.
void facePhiPass(const FArrayBox& phi0, FArrayBox& flux, int d, int c,
                 const Box& fb) {
  if (fb.empty()) {
    return;
  }
  const Idx ip(phi0);
  const Idx ix(flux);
  const std::int64_t s = ip.stride(d);
  const Real* pc = phi0.dataPtr(c);
  Real* out = flux.dataPtr(c);
  const int nx = fb.size(0);
  for (int k = fb.lo(2); k <= fb.hi(2); ++k) {
    for (int j = fb.lo(1); j <= fb.hi(1); ++j) {
      pencil::evalFlux1Pencil(pc + ip(fb.lo(0), j, k), s, nx,
                              out + ix(fb.lo(0), j, k));
    }
  }
}

/// EvalFlux2 pass: flux[c] *= velocity over `fb` (velocity given as a
/// component of `vel`, which may alias another component of `flux`).
void fluxPass(FArrayBox& flux, const FArrayBox& vel, int velComp, int c,
              const Box& fb) {
  if (fb.empty()) {
    return;
  }
  const Idx ix(flux);
  const Idx iv(vel);
  Real* f = flux.dataPtr(c);
  const Real* v = vel.dataPtr(velComp);
  // CLO multiplies the velocity component by itself last — the one case
  // where the in-place row and the velocity row are the same memory, which
  // the restrict-qualified fluxPencil must not see.
  const bool selfMultiply = (f == v);
  const int nx = fb.size(0);
  for (int k = fb.lo(2); k <= fb.hi(2); ++k) {
    for (int j = fb.lo(1); j <= fb.hi(1); ++j) {
      Real* frow = f + ix(fb.lo(0), j, k);
      if (selfMultiply) {
        pencil::fluxSquarePencil(frow, nx);
      } else {
        pencil::fluxPencil(frow, v + iv(fb.lo(0), j, k), nx);
      }
    }
  }
}

/// Accumulation pass: phi1[c] += scale * (flux[cell + e_d] - flux[cell])
/// over cell region `cb`.
void accumulatePass(const FArrayBox& flux, FArrayBox& phi1, int d, int c,
                    const Box& cb, Real scale) {
  if (cb.empty()) {
    return;
  }
  FLUXDIV_SHADOW_WRITE(phi1, cb, c, 1);
  const Idx ix(flux);
  const Idx io(phi1);
  const std::int64_t s = ix.stride(d);
  const Real* f = flux.dataPtr(c);
  Real* out = phi1.dataPtr(c);
  const int nx = cb.size(0);
  for (int k = cb.lo(2); k <= cb.hi(2); ++k) {
    for (int j = cb.lo(1); j <= cb.hi(1); ++j) {
      pencil::accumulatePencil(f + ix(cb.lo(0), j, k), s, nx, scale,
                               out + io(cb.lo(0), j, k));
    }
  }
}

/// Velocity copy: vel[0] = flux[velComp] over `fb` (CLI needs the original
/// velocity preserved because EvalFlux2 overwrites flux in place).
void velocityCopy(const FArrayBox& flux, FArrayBox& vel, int velComp,
                  const Box& fb) {
  if (fb.empty()) {
    return;
  }
  const Idx ix(flux);
  const Idx iv(vel);
  const Real* f = flux.dataPtr(velComp);
  Real* v = vel.dataPtr(0);
  const int nx = fb.size(0);
  for (int k = fb.lo(2); k <= fb.hi(2); ++k) {
    for (int j = fb.lo(1); j <= fb.hi(1); ++j) {
      pencil::copyPencil(f + ix(fb.lo(0), j, k), nx,
                         v + iv(fb.lo(0), j, k));
    }
  }
}

/// CLI EvalFlux1 pass: the component loop sits inside the face loops (per
/// x-row: a row's five component pencils are produced together, touching
/// the far-apart component planes of the [x,y,z,c] layout — the locality
/// cost the paper attributes to this axis).
void cliFacePhi(const FArrayBox& phi0, FArrayBox& flux, int d,
                const Box& fb) {
  if (fb.empty()) {
    return;
  }
  const Idx ip(phi0);
  const Idx ix(flux);
  const std::int64_t s = ip.stride(d);
  const ConstComps pc(phi0);
  const MutComps fx(flux);
  const int nx = fb.size(0);
  for (int k = fb.lo(2); k <= fb.hi(2); ++k) {
    for (int j = fb.lo(1); j <= fb.hi(1); ++j) {
      const std::int64_t pbase = ip(fb.lo(0), j, k);
      const std::int64_t fbase = ix(fb.lo(0), j, k);
      for (int c = 0; c < kNumComp; ++c) {
        pencil::evalFlux1Pencil(pc[c] + pbase, s, nx, fx[c] + fbase);
      }
    }
  }
}

/// CLI EvalFlux2 pass: flux[c] *= vel with the component loop innermost.
void cliFlux2(FArrayBox& flux, const FArrayBox& vel, const Box& fb) {
  if (fb.empty()) {
    return;
  }
  const Idx ix(flux);
  const Idx iv(vel);
  const MutComps fx(flux);
  const Real* v = vel.dataPtr(0);
  const int nx = fb.size(0);
  for (int k = fb.lo(2); k <= fb.hi(2); ++k) {
    for (int j = fb.lo(1); j <= fb.hi(1); ++j) {
      const std::int64_t fbase = ix(fb.lo(0), j, k);
      const Real* vrow = v + iv(fb.lo(0), j, k);
      for (int c = 0; c < kNumComp; ++c) {
        pencil::fluxPencil(fx[c] + fbase, vrow, nx);
      }
    }
  }
}

/// CLI accumulation pass with the component loop innermost.
void cliAccumulate(const FArrayBox& flux, FArrayBox& phi1, int d,
                   const Box& cb, Real scale) {
  if (cb.empty()) {
    return;
  }
  FLUXDIV_SHADOW_WRITE(phi1, cb, 0, kNumComp);
  const Idx ix(flux);
  const Idx io(phi1);
  const std::int64_t s = ix.stride(d);
  const ConstComps fx(flux);
  const MutComps out(phi1);
  const int nx = cb.size(0);
  for (int k = cb.lo(2); k <= cb.hi(2); ++k) {
    for (int j = cb.lo(1); j <= cb.hi(1); ++j) {
      const std::int64_t fbase = ix(cb.lo(0), j, k);
      const std::int64_t obase = io(cb.lo(0), j, k);
      for (int c = 0; c < kNumComp; ++c) {
        pencil::accumulatePencil(fx[c] + fbase, s, nx, scale,
                                 out[c] + obase);
      }
    }
  }
}

/// Body executed by every thread of the within-box team (or once, serially,
/// with nth == 1). Stage regions are partitioned into z-slabs; barriers
/// separate stages whose reads cross slab boundaries.
void baselineBody(const VariantConfig& cfg, const FArrayBox& phi0,
                  FArrayBox& phi1, const Box& valid, FArrayBox& flux,
                  FArrayBox* vel, Real scale, int nth, int tid) {
  // Synchronize the within-box team between dependent stages. Guarded so
  // the serial path (nth == 1) stays barrier-free: the overlapped-tile
  // executor calls this body per tile from inside its own OpenMP region,
  // where an unconditional orphaned barrier would deadlock the team.
  auto sync = [nth] {
    if (nth > 1) {
#pragma omp barrier
    }
  };
  for (int d = 0; d < grid::SpaceDim; ++d) {
    const Box fb = valid.faceBox(d);
    const int vd = kernels::velocityComp(d);
    const Box faceSlab = zSlab(fb, nth, tid);
    const Box cellSlab = zSlab(valid, nth, tid);

    if (cfg.comp == ComponentLoop::Outside) {
      // Line 6 of Fig. 6: component loop outside the face loop.
      for (int c = 0; c < kNumComp; ++c) {
        facePhiPass(phi0, flux, d, c, faceSlab);
      }
sync();
      // CLO avoids the velocity temporary by multiplying the velocity
      // component last (the loop reordering noted in Sec. IV-A).
      for (int c = 0; c < kNumComp; ++c) {
        if (c == vd) {
          continue;
        }
        fluxPass(flux, flux, vd, c, faceSlab);
        sync();
        accumulatePass(flux, phi1, d, c, cellSlab, scale);
      }
      fluxPass(flux, flux, vd, vd, faceSlab);
      sync();
      accumulatePass(flux, phi1, d, vd, cellSlab, scale);
      sync();
    } else {
      // CLI: EvalFlux2 overwrites flux in place, so the velocity component
      // must be copied out first (the Velocity temporary of Table I).
      cliFacePhi(phi0, flux, d, faceSlab);
      velocityCopy(flux, *vel, vd, faceSlab);
      cliFlux2(flux, *vel, faceSlab);
      sync();
      cliAccumulate(flux, phi1, d, cellSlab, scale);
      sync();
    }
  }
}

} // namespace

void baselineBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                       FArrayBox& phi1, const Box& valid, Workspace& ws,
                       Real scale) {
  FArrayBox& flux = ws.fab(Slot::Flux, faceSupersetBox(valid), kNumComp);
  // CLO reorders the component loop to multiply the velocity component
  // last, eliminating the Velocity temporary (Sec. IV-A).
  FArrayBox* vel =
      cfg.comp == ComponentLoop::Inside
          ? &ws.fab(Slot::Velocity, faceSupersetBox(valid), 1)
          : nullptr;
  baselineBody(cfg, phi0, phi1, valid, flux, vel, scale, 1, 0);
}

void baselineBoxParallel(const VariantConfig& cfg, const FArrayBox& phi0,
                         FArrayBox& phi1, const Box& valid,
                         WorkspacePool& pool, int nThreads, Real scale) {
  // Whole-box temporaries are shared by the team, drawn from thread 0's
  // workspace before the region opens.
  Workspace& shared = pool[0];
  FArrayBox& flux = shared.fab(Slot::Flux, faceSupersetBox(valid), kNumComp);
  FArrayBox* vel =
      cfg.comp == ComponentLoop::Inside
          ? &shared.fab(Slot::Velocity, faceSupersetBox(valid), 1)
          : nullptr;
  FLUXDIV_SHADOW_PREPARE(phi1);
#pragma omp parallel num_threads(nThreads)
  {
    baselineBody(cfg, phi0, phi1, valid, flux, vel, scale,
                 omp_get_num_threads(), omp_get_thread_num());
  }
}

} // namespace fluxdiv::core::detail
