#pragma once
// Shared pieces of the shifted-and-fused schedules (paper Sec. IV-B/C):
// the per-cell fused iteration, which the per-iteration (cell) wavefront
// runs — the serial, blocked and overlapped sweeps run the same
// arithmetic as pencils (kernels/pencil.hpp) — plus the face-velocity
// precompute and the box-shared scratch and graph prologue of the two
// wavefront schedules. One fused iteration computes the three high-side
// face fluxes of a cell, consumes the low-side fluxes left behind by the
// -x/-y/-z predecessor iterations (or computes them fresh on the sweep's
// low boundary), and accumulates the flux differences into phi1.
//
// The "slot" pointers are where the predecessor stored the shared face
// flux and where this cell stores its high flux for the successor: in
// the wavefront, slots of the co-dimension caches (Sec. IV-C).

#include <memory>

#include "core/exec_common.hpp"

namespace fluxdiv::core::detail {

/// Component-loop-inside fused iteration: all kNumComp components of one
/// cell. `a` indexes phi0 at the cell, `o` indexes phi1. `fresh*` is true
/// when this cell is on the low boundary of the sweep in that direction
/// (its low-face flux is computed directly rather than read from the slot).
inline void fusedCellCLI(const ConstComps& p, const MutComps& out,
                         std::int64_t a, std::int64_t o, std::int64_t sy,
                         std::int64_t sz, bool freshX, bool freshY,
                         bool freshZ, Real* slotX, Real* slotY, Real* slotZ,
                         Real scale) {
  using kernels::faceFlux;
  Real fxlo[kNumComp], fxhi[kNumComp];
  Real fylo[kNumComp], fyhi[kNumComp];
  Real fzlo[kNumComp], fzhi[kNumComp];
  for (int c = 0; c < kNumComp; ++c) {
    fxlo[c] = freshX ? faceFlux(p[c] + a, p[1] + a, 1) : slotX[c];
    fxhi[c] = faceFlux(p[c] + a + 1, p[1] + a + 1, 1);
    fylo[c] = freshY ? faceFlux(p[c] + a, p[2] + a, sy) : slotY[c];
    fyhi[c] = faceFlux(p[c] + a + sy, p[2] + a + sy, sy);
    fzlo[c] = freshZ ? faceFlux(p[c] + a, p[3] + a, sz) : slotZ[c];
    fzhi[c] = faceFlux(p[c] + a + sz, p[3] + a + sz, sz);
  }
  for (int c = 0; c < kNumComp; ++c) {
    // Three separate read-modify-writes per component, matching the
    // rounding order of the reference kernel's per-direction passes.
    out[c][o] += scale * (fxhi[c] - fxlo[c]);
    out[c][o] += scale * (fyhi[c] - fylo[c]);
    out[c][o] += scale * (fzhi[c] - fzlo[c]);
    slotX[c] = fxhi[c];
    slotY[c] = fyhi[c];
    slotZ[c] = fzhi[c];
  }
}

/// Component-loop-outside fused iteration: a single component `pc`/`outc`
/// of one cell, with face-averaged normal velocities precomputed in `vel`
/// (component d over valid.faceBox(d); see precomputeFaceVelocity). `av`
/// indexes every `vel` component at this cell's low faces (all three low
/// faces share the cell's own index); the high faces are one d-stride
/// further, with vel's strides `vsy`/`vsz`.
inline void fusedCellCLO(const Real* pc, Real* outc, std::int64_t a,
                         std::int64_t o, std::int64_t sy, std::int64_t sz,
                         const Real* velx, const Real* vely,
                         const Real* velz, std::int64_t av,
                         std::int64_t vsy, std::int64_t vsz, bool freshX,
                         bool freshY, bool freshZ, Real* slotX, Real* slotY,
                         Real* slotZ, Real scale) {
  using kernels::evalFlux1;
  using kernels::evalFlux2;
  const Real fxlo =
      freshX ? evalFlux2(evalFlux1(pc + a, 1), velx[av]) : *slotX;
  const Real fxhi = evalFlux2(evalFlux1(pc + a + 1, 1), velx[av + 1]);
  const Real fylo =
      freshY ? evalFlux2(evalFlux1(pc + a, sy), vely[av]) : *slotY;
  const Real fyhi = evalFlux2(evalFlux1(pc + a + sy, sy), vely[av + vsy]);
  const Real fzlo =
      freshZ ? evalFlux2(evalFlux1(pc + a, sz), velz[av]) : *slotZ;
  const Real fzhi = evalFlux2(evalFlux1(pc + a + sz, sz), velz[av + vsz]);
  outc[o] += scale * (fxhi - fxlo);
  outc[o] += scale * (fyhi - fylo);
  outc[o] += scale * (fzhi - fzlo);
  *slotX = fxhi;
  *slotY = fyhi;
  *slotZ = fzhi;
}

/// Fill `vel` component d with the face-averaged normal velocity
/// (EvalFlux1 of phi0 component d+1) over region `fb_d` = the z-slab of
/// valid.faceBox(d) owned by worker `tid` of `nth`. `vel` must be
/// allocated on faceSupersetBox(valid) (or a superset) with 3 components.
void precomputeFaceVelocity(const FArrayBox& phi0, FArrayBox& vel,
                            const Box& valid, int nth, int tid);

/// Box-shared scratch of the wavefront schedules (shift-fuse cell
/// wavefront, blocked tile wavefront): the co-dimension flux caches —
/// cacheX holds one slot per (j,k) pencil, cacheY per (i,k), cacheZ per
/// (i,j), kNumComp entries each under CLI — and, under CLO, the
/// precomputed face velocities.
struct WavefrontScratch {
  Real* cacheX = nullptr;
  Real* cacheY = nullptr;
  Real* cacheZ = nullptr;
  FArrayBox* vel = nullptr;

  WavefrontScratch() = default;
  WavefrontScratch(const VariantConfig& cfg, const Box& valid,
                   Workspace& shared);
};

/// Open a wavefront schedule's graph: one task draws the WavefrontScratch
/// of call.boxes[0] from worker 0's workspace, then under CLO the z-slab
/// velocity precompute runs as one phase. Returns the scratch the later
/// phases read.
std::shared_ptr<const WavefrontScratch>
beginWavefrontGraph(PhaseChain& chain, const VariantConfig& cfg,
                    int nThreads, const RunnerCall& call);

} // namespace fluxdiv::core::detail
