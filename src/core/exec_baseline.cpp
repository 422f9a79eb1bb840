// Series-of-loops baseline (paper Sec. IV-A, Fig. 6/7): for each direction,
// separate passes over faces (EvalFlux1), faces again (EvalFlux2), and cells
// (accumulation), with whole-box face-centered temporaries. Axes: component
// loop outside (CLO) or inside (CLI); parallelization over boxes (caller) or
// over z-slabs within the box (one task per slab and barrier-delimited
// phase).
//
// Inner loops go through the pencil layer (kernels/pencil.hpp): every pass
// walks whole unit-stride x-rows, so the stage structure the legality
// checker and cost model reason about — which pass touches which region,
// separated by which barriers — is exactly the seed's; only the per-row
// arithmetic is vectorized. CLI passes keep the component loop inside the
// j/k face loops (the axis under study) but hoist it out of the x-row so
// each (row, component) becomes one pencil; per (cell, component) the
// expressions and their evaluation order are unchanged.

#include <memory>

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
/// over cell region `cb`, attributed to shadow writer `writer`.
void accumulatePass(const FArrayBox& flux, FArrayBox& phi1, int d, int c,
                    const Box& cb, Real scale, int writer) {
  if (cb.empty()) {
    return;
  }
  FLUXDIV_SHADOW_WRITE_AS(phi1, cb, c, 1, writer);
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
                   const Box& cb, Real scale, int writer) {
  if (cb.empty()) {
    return;
  }
  FLUXDIV_SHADOW_WRITE_AS(phi1, cb, 0, kNumComp, writer);
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

/// The schedule over worker `tid` of `nth`'s z-slabs. Barriers (sync)
/// separate stages whose reads cross slab boundaries and number the
/// phases between them. Runs only phase `only` as slab `tid`'s task of the
/// within-box graph, or every phase on the calling worker when `only` < 0.
void baselineBody(const VariantConfig& cfg, const FArrayBox& phi0,
                  FArrayBox& phi1, const Box& valid, FArrayBox& flux,
                  FArrayBox* vel, Real scale, int nth, int tid, int only) {
  int phase = 0;
  auto slab = [&](const Box& b) {
    return only < 0 || only == phase ? zSlab(b, nth, tid) : Box();
  };
  auto sync = [&] { ++phase; };
  // Each cell is accumulated three times (x, y, z): a slab's tasks are
  // ordered by the graph but may run on any worker, so the slab is the
  // shadow writer of its cells.
  const int writer = only < 0 ? shadowWorkerId() : tid;
  for (int d = 0; d < grid::SpaceDim; ++d) {
    const Box fb = valid.faceBox(d);
    const int vd = kernels::velocityComp(d);
    if (cfg.comp == ComponentLoop::Outside) {
      // Line 6 of Fig. 6: component loop outside the face loop.
      for (int c = 0; c < kNumComp; ++c) {
        facePhiPass(phi0, flux, d, c, slab(fb));
      }
      sync();
      // CLO avoids the velocity temporary by multiplying the velocity
      // component last (the loop reordering noted in Sec. IV-A).
      for (int c = 0; c < kNumComp; ++c) {
        if (c == vd) {
          continue;
        }
        fluxPass(flux, flux, vd, c, slab(fb));
        sync();
        accumulatePass(flux, phi1, d, c, slab(valid), scale, writer);
      }
      fluxPass(flux, flux, vd, vd, slab(fb));
      sync();
      accumulatePass(flux, phi1, d, vd, slab(valid), scale, writer);
      sync();
    } else {
      // CLI: EvalFlux2 overwrites flux in place, so the velocity component
      // must be copied out first (the Velocity temporary of Table I).
      const Box faceSlab = slab(fb);
      cliFacePhi(phi0, flux, d, faceSlab);
      velocityCopy(flux, *vel, vd, faceSlab);
      cliFlux2(flux, *vel, faceSlab);
      sync();
      cliAccumulate(flux, phi1, d, slab(valid), scale, writer);
      sync();
    }
  }
}

/// baselineBody's phase count: its sync() calls per direction.
int baselinePhases(const VariantConfig& cfg) {
  return grid::SpaceDim *
         (cfg.comp == ComponentLoop::Outside ? kNumComp + 2 : 2);
}

/// The whole-box temporaries: the flux and, under CLI, the velocity. CLO
/// reorders the component loop to multiply the velocity component last,
/// eliminating the Velocity temporary (Sec. IV-A).
std::pair<FArrayBox*, FArrayBox*> baselineScratch(const VariantConfig& cfg,
                                                  const Box& valid,
                                                  Workspace& ws) {
  FArrayBox* vel = cfg.comp == ComponentLoop::Inside
                       ? &ws.fab(Slot::Velocity, faceSupersetBox(valid), 1)
                       : nullptr;
  return {&ws.fab(Slot::Flux, faceSupersetBox(valid), kNumComp), vel};
}

} // namespace

void baselineBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                       FArrayBox& phi1, const Box& valid, Workspace& ws,
                       Real scale) {
  const auto [flux, vel] = baselineScratch(cfg, valid, ws);
  baselineBody(cfg, phi0, phi1, valid, *flux, vel, scale, 1, 0, -1);
}

void baselineBoxGraph(TaskGraph& graph, const VariantConfig& cfg,
                      int nThreads, const RunnerCall& call) {
  // Whole-box temporaries are shared by the slabs, drawn from worker 0's
  // workspace by a first task.
  auto scratch = std::make_shared<std::pair<FArrayBox*, FArrayBox*>>();
  PhaseChain chain(graph);
  chain.add([&cfg, &call, scratch](int) {
    *scratch = baselineScratch(cfg, call.boxes[0].valid, (*call.ws)[0]);
  });
  for (int p = 0; p < baselinePhases(cfg); ++p) {
    chain.barrier();
    for (int tid = 0; tid < nThreads; ++tid) {
      chain.add(
          [&cfg, &call, scratch, nThreads, tid, p](int) {
            const RunnerCall::BoxRef& b = call.boxes[0];
            baselineBody(cfg, *b.phi0, *b.phi1, b.valid, *scratch->first,
                         scratch->second, call.scale, nThreads, tid, p);
          },
          tid);
    }
  }
}

} // namespace fluxdiv::core::detail
