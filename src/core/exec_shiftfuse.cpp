// Shifted-and-fused schedule (paper Sec. IV-B): the per-direction face and
// cell loops are shifted and fused into a single sweep over cells. Serial
// sweeps carry flux values in a row/plane set of temporaries (Table I row
// 2); the within-box parallelization recovers parallelism with a
// per-iteration wavefront over the cell diagonal, which requires
// co-dimension flux caches instead.
//
// The serial sweeps are vectorized one x-row at a time through the pencil
// layer (kernels/pencil.hpp): the y/z carries become whole carry rows
// rolled forward by fusedRowPencil, and the x carry chain becomes a
// fresh (nx+1)-face flux row — each x-face flux is still computed exactly
// once per sweep (the carried value and the fresh value are the same
// expression on the same cells), so the schedule's recomputation count and
// per-(cell, component) x,y,z accumulation order — hence the bits — are
// unchanged. fusedRowPencil accumulates a row's x, y and z differences in
// registers and stores each output element once, so a sweep finishes its
// output one row at a time: shiftFuseBoxRows hands each finished row to a
// consumer (the step graph's stage combines) while the row is in L1.
// The wavefront schedule keeps the per-cell fused iteration:
// cells of one diagonal front are not contiguous in any direction, so
// there is no pencil to form.

#include <algorithm>

#include "core/exec_common.hpp"
#include "core/exec_fused.hpp"
#include "kernels/pencil.hpp"
#include "sched/partition.hpp"

namespace fluxdiv::core::detail {

void precomputeFaceVelocity(const FArrayBox& phi0, FArrayBox& vel,
                            const Box& valid, int nth, int tid) {
  const Idx ip(phi0);
  const Idx iv(vel);
  for (int d = 0; d < grid::SpaceDim; ++d) {
    const Box fb = sched::zSlab(valid.faceBox(d), nth, tid);
    if (fb.empty()) {
      continue;
    }
    const std::int64_t s = ip.stride(d);
    const Real* pv = phi0.dataPtr(kernels::velocityComp(d));
    Real* out = vel.dataPtr(d);
    const int nx = fb.size(0);
    for (int k = fb.lo(2); k <= fb.hi(2); ++k) {
      for (int j = fb.lo(1); j <= fb.hi(1); ++j) {
        kernels::pencil::evalFlux1Pencil(pv + ip(fb.lo(0), j, k), s, nx,
                                         out + iv(fb.lo(0), j, k));
      }
    }
  }
}

namespace {

namespace pencil = kernels::pencil;

/// Serial fused sweep, component loop inside: one pass over the cell rows
/// with carry temporaries of size ~C*nx (x-face row), C*nx (y row carry),
/// and C*nx*ny (z plane carry) — the 2N + 2N^2 scaling of Table I row 2.
/// Carry rows are component-major (c*nx + ii) so each (row, component)
/// step is one contiguous pencil. Output row (c, j, k) goes to
/// rowAt(c, j, k) (fusedRowPencil, from +0.0 or, with Accumulate, from
/// the row's old values), and finish(c, j, k, row) runs before the next.
template <bool Accumulate, typename RowAt, typename Finish>
void serialCLI(const FArrayBox& phi0, const Box& valid, Workspace& ws,
               Real scale, RowAt&& rowAt, Finish&& finish) {
  const Idx ip(phi0);
  const ConstComps p(phi0);
  const int nx = valid.size(0);
  const int ny = valid.size(1);
  const std::int64_t sy = ip.sy;
  const std::int64_t sz = ip.sz;
  Real* fface =
      ws.buffer(Slot::CarryX, static_cast<std::size_t>(nx) + 1);
  Real* rowY = ws.buffer(Slot::CarryY,
                         static_cast<std::size_t>(nx) * kNumComp);
  Real* planeZ = ws.buffer(
      Slot::CarryZ, static_cast<std::size_t>(nx) * ny * kNumComp);
  for (int k = valid.lo(2); k <= valid.hi(2); ++k) {
    const bool freshZ = k == valid.lo(2);
    for (int j = valid.lo(1); j <= valid.hi(1); ++j) {
      const bool freshY = j == valid.lo(1);
      const int jj = j - valid.lo(1);
      const std::int64_t a = ip(valid.lo(0), j, k);
      for (int c = 0; c < kNumComp; ++c) {
        // x: all nx+1 face fluxes of the row; y/z: low faces carried from
        // row j-1 / plane k-1 (computed fresh on the sweep's low boundary),
        // high faces computed in the row step.
        pencil::faceFluxPencil(p[c] + a, p[1] + a, 1, nx + 1, fface);
        Real* carryY = rowY + static_cast<std::size_t>(c) * nx;
        if (freshY) {
          pencil::faceFluxPencil(p[c] + a, p[2] + a, sy, nx, carryY);
        }
        Real* carryZ =
            planeZ + (static_cast<std::size_t>(c) * ny + jj) * nx;
        if (freshZ) {
          pencil::faceFluxPencil(p[c] + a, p[3] + a, sz, nx, carryZ);
        }
        const Real* cy = p[c] + a + sy;
        const Real* vy = p[2] + a + sy;
        const Real* cz = p[c] + a + sz;
        const Real* vz = p[3] + a + sz;
        Real* out = rowAt(c, j, k);
        pencil::fusedRowPencil<Accumulate>(
            fface,
            [=](int i) { return kernels::faceFlux(cy + i, vy + i, sy); },
            [=](int i) { return kernels::faceFlux(cz + i, vz + i, sz); },
            carryY, carryZ, nx, scale, out);
        finish(c, j, k, out);
      }
    }
  }
}

/// Serial fused sweep, component loop outside: per component, a fused pass
/// with row/plane carries; the face-averaged velocities for all three
/// directions are precomputed (the 3(N+1)^3 velocity temporary of Table I).
/// Rows go out as in serialCLI, component by component.
template <bool Accumulate, typename RowAt, typename Finish>
void serialCLO(const FArrayBox& phi0, const Box& valid, Workspace& ws,
               Real scale, RowAt&& rowAt, Finish&& finish) {
  const Idx ip(phi0);
  FArrayBox& vel = ws.fab(Slot::Velocity, faceSupersetBox(valid), 3);
  precomputeFaceVelocity(phi0, vel, valid, 1, 0);
  const Idx iv(vel);
  const int nx = valid.size(0);
  const int ny = valid.size(1);
  const std::int64_t sy = ip.sy;
  const std::int64_t sz = ip.sz;
  Real* fface =
      ws.buffer(Slot::CarryX, static_cast<std::size_t>(nx) + 1);
  Real* rowY = ws.buffer(Slot::CarryY, static_cast<std::size_t>(nx));
  Real* planeZ =
      ws.buffer(Slot::CarryZ, static_cast<std::size_t>(nx) * ny);
  const Real* velx = vel.dataPtr(0);
  const Real* vely = vel.dataPtr(1);
  const Real* velz = vel.dataPtr(2);
  for (int c = 0; c < kNumComp; ++c) {
    const Real* pc = phi0.dataPtr(c);
    for (int k = valid.lo(2); k <= valid.hi(2); ++k) {
      const bool freshZ = k == valid.lo(2);
      for (int j = valid.lo(1); j <= valid.hi(1); ++j) {
        const bool freshY = j == valid.lo(1);
        const int jj = j - valid.lo(1);
        const std::int64_t a = ip(valid.lo(0), j, k);
        const std::int64_t av = iv(valid.lo(0), j, k);
        pencil::evalFlux1MulPencil(pc + a, 1, velx + av, nx + 1, fface);
        if (freshY) {
          pencil::evalFlux1MulPencil(pc + a, sy, vely + av, nx, rowY);
        }
        Real* carryZ = planeZ + static_cast<std::size_t>(jj) * nx;
        if (freshZ) {
          pencil::evalFlux1MulPencil(pc + a, sz, velz + av, nx, carryZ);
        }
        const Real* cy = pc + a + sy;
        const Real* vy = vely + av + iv.sy;
        const Real* cz = pc + a + sz;
        const Real* vz = velz + av + iv.sz;
        Real* out = rowAt(c, j, k);
        pencil::fusedRowPencil<Accumulate>(
            fface,
            [=](int i) {
              return kernels::evalFlux2(kernels::evalFlux1(cy + i, sy),
                                        vy[i]);
            },
            [=](int i) {
              return kernels::evalFlux2(kernels::evalFlux1(cz + i, sz),
                                        vz[i]);
            },
            rowY, carryZ, nx, scale, out);
        finish(c, j, k, out);
      }
    }
  }
}

/// Run the family's serial sweep (CLI or CLO) with the row callbacks.
template <bool Accumulate, typename RowAt, typename Finish>
void serialSweep(const VariantConfig& cfg, const FArrayBox& phi0,
                 const Box& valid, Workspace& ws, Real scale, RowAt&& rowAt,
                 Finish&& finish) {
  if (cfg.comp == ComponentLoop::Inside) {
    serialCLI<Accumulate>(phi0, valid, ws, scale, rowAt, finish);
  } else {
    serialCLO<Accumulate>(phi0, valid, ws, scale, rowAt, finish);
  }
}

/// Visit cells [first, last) of cell wavefront `w` (ii + jj + kk == w,
/// box-relative) of `valid`, in (kk, jj) order, as fn(ii, jj, kk); returns
/// the front's cell count. Each (j,k) pair contributes at most one cell to
/// a front, and cells of one front touch pairwise-distinct slots of every
/// co-dimension cache, so slices of a front run concurrently.
template <typename Fn>
int forFrontCells(const Box& valid, int w, int first, int last, Fn&& fn) {
  const int nx = valid.size(0);
  int idx = 0;
  for (int kk = std::max(0, w - (nx - 1) - (valid.size(1) - 1));
       kk <= std::min(valid.size(2) - 1, w); ++kk) {
    const int jjLo = std::max(0, w - kk - (nx - 1));
    const int jjHi = std::min(valid.size(1) - 1, w - kk);
    for (int jj = jjLo; jj <= jjHi; ++jj, ++idx) {
      if (idx >= first && idx < last) {
        fn(w - kk - jj, jj, kk);
      }
    }
  }
  return idx;
}

/// Cells [first, last) of cell wavefront `w`, of component `c` under CLO.
void sweepFrontSlice(const VariantConfig& cfg, const RunnerCall::BoxRef& b,
                     const WavefrontScratch& s, int c, int w, int first,
                     int last, Real scale) {
  const Idx ip(*b.phi0);
  const Idx io(*b.phi1);
  const ConstComps p(*b.phi0);
  const MutComps out(*b.phi1);
  const bool cli = cfg.comp == ComponentLoop::Inside;
  const FArrayBox& vel = cli ? *b.phi0 : *s.vel; // CLI reads no velocity
  const Idx iv(vel);
  const auto nx = static_cast<std::size_t>(b.valid.size(0));
  const auto ny = static_cast<std::size_t>(b.valid.size(1));
  const std::size_t e = cli ? kNumComp : 1; // cache entries per slot
  forFrontCells(b.valid, w, first, last, [&](int ii, int jj, int kk) {
    const IntVect at = b.valid.lo() + IntVect(ii, jj, kk);
    const std::int64_t ai = ip(at[0], at[1], at[2]);
    const std::int64_t oi = io(at[0], at[1], at[2]);
    Real* slotX = s.cacheX + (kk * ny + jj) * e;
    Real* slotY = s.cacheY + (kk * nx + ii) * e;
    Real* slotZ = s.cacheZ + (jj * nx + ii) * e;
    if (cli) {
      FLUXDIV_SHADOW_WRITE(*b.phi1, Box(at, at), 0, kNumComp);
      fusedCellCLI(p, out, ai, oi, ip.sy, ip.sz, ii == 0, jj == 0, kk == 0,
                   slotX, slotY, slotZ, scale);
    } else {
      FLUXDIV_SHADOW_WRITE(*b.phi1, Box(at, at), c, 1);
      fusedCellCLO(p[c], out[c], ai, oi, ip.sy, ip.sz, vel.dataPtr(0),
                   vel.dataPtr(1), vel.dataPtr(2), iv(at[0], at[1], at[2]),
                   iv.sy, iv.sz, ii == 0, jj == 0, kk == 0, slotX, slotY,
                   slotZ, scale);
    }
  });
}

} // namespace

void shiftFuseBoxSerial(const VariantConfig& cfg, const FArrayBox& phi0,
                        FArrayBox& phi1, const Box& valid, Workspace& ws,
                        Real scale) {
  FLUXDIV_SHADOW_WRITE(phi1, valid, 0, kNumComp);
  const Idx io(phi1);
  serialSweep<true>(
      cfg, phi0, valid, ws, scale,
      [&](int c, int j, int k) {
        return phi1.dataPtr(c) + io(valid.lo(0), j, k);
      },
      [](int, int, int, Real*) {});
}

void shiftFuseBoxRows(const VariantConfig& cfg, const FArrayBox& phi0,
                      const Box& valid, Workspace& ws, Real scale,
                      RowSink& sink) {
  serialSweep<false>(
      cfg, phi0, valid, ws, scale,
      [&](int c, int j, int k) { return sink.row(c, j, k); },
      [&](int c, int j, int k, Real* row) { sink.finish(c, j, k, row); });
}

WavefrontScratch::WavefrontScratch(const VariantConfig& cfg,
                                   const Box& valid, Workspace& shared) {
  const auto nx = static_cast<std::size_t>(valid.size(0));
  const auto ny = static_cast<std::size_t>(valid.size(1));
  const auto nz = static_cast<std::size_t>(valid.size(2));
  const std::size_t entries = cfg.comp == ComponentLoop::Inside
                                  ? static_cast<std::size_t>(kNumComp)
                                  : 1u;
  cacheX = shared.buffer(Slot::CarryX, ny * nz * entries);
  cacheY = shared.buffer(Slot::CarryY, nx * nz * entries);
  cacheZ = shared.buffer(Slot::CarryZ, nx * ny * entries);
  if (cfg.comp == ComponentLoop::Outside) {
    vel = &shared.fab(Slot::Velocity, faceSupersetBox(valid), 3);
  }
}

std::shared_ptr<const WavefrontScratch>
beginWavefrontGraph(PhaseChain& chain, const VariantConfig& cfg,
                    int nThreads, const RunnerCall& call) {
  auto scratch = std::make_shared<WavefrontScratch>();
  chain.add([&cfg, &call, scratch](int) {
    *scratch = WavefrontScratch(cfg, call.boxes[0].valid, (*call.ws)[0]);
  });
  chain.barrier();
  if (cfg.comp == ComponentLoop::Outside) {
    for (int tid = 0; tid < nThreads; ++tid) {
      chain.add(
          [&call, scratch, nThreads, tid](int) {
            const RunnerCall::BoxRef& b = call.boxes[0];
            precomputeFaceVelocity(*b.phi0, *scratch->vel, b.valid,
                                   nThreads, tid);
          },
          tid);
    }
    chain.barrier();
  }
  return scratch;
}

void shiftFuseBoxGraph(TaskGraph& graph, const VariantConfig& cfg,
                       const Box& shape, int nThreads,
                       const RunnerCall& call) {
  PhaseChain chain(graph);
  const auto scratch = beginWavefrontGraph(chain, cfg, nThreads, call);
  const int nFronts = shape.size(0) + shape.size(1) + shape.size(2) - 2;
  // CLO sweeps the cell wavefronts once per component.
  const int sweeps = cfg.comp == ComponentLoop::Outside ? kNumComp : 1;
  for (int c = 0; c < sweeps; ++c) {
    for (int w = 0; w < nFronts; ++w) {
      // One slice of the front's cells per worker.
      const int cells = forFrontCells(shape, w, 0, 0, [](int, int, int) {});
      const int nSlices = std::min(nThreads, cells);
      for (int slice = 0; slice < nSlices; ++slice) {
        const auto [first, last] = sched::staticSlice(cells, nSlices, slice);
        chain.add(
            [&cfg, &call, scratch, c, w, first = static_cast<int>(first),
             last = static_cast<int>(last)](int) {
              sweepFrontSlice(cfg, call.boxes[0], *scratch, c, w, first, last,
                              call.scale);
            },
            slice);
      }
      chain.barrier();
    }
  }
}

} // namespace fluxdiv::core::detail
