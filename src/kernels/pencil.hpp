#pragma once
// Vectorized whole-pencil kernels over the exemplar arithmetic
// (kernels/exemplar.hpp). A "pencil" is one unit-stride x-row of faces or
// cells; every kernel here walks a pencil with a `#pragma omp simd` inner
// loop over restrict-qualified pointers, so the compiler vectorizes
// without runtime alias versioning. The strided y/z stencil directions
// need no separate implementation: a y- or z-face stencil read from a
// pencil is still unit-stride in i — only the fixed `stride` offsets
// (+-sy, +-sz) differ — so one kernel covers all three directions.
//
// Numerical contract: each kernel performs literally the per-element
// expressions of the scalar exemplar kernels, element by element, so a
// pencil pass is bit-identical to the per-point loop it replaces. The
// scalar per-point kernels in exemplar.hpp (and the per-cell fused
// iterations in core/exec_fused.hpp) remain compiled as the reference
// path; tests/kernels/test_pencil.cpp pins the equivalence.
//
// Aliasing contract: `out`/`carry` pointers never alias any input or each
// other; input pointers may alias each other (they are only read). The
// executors satisfy this by construction — outputs are rows of phi1 or of
// workspace temporaries, inputs are rows of phi0 or of other temporaries.
//
// Alignment: callers that want aligned loads pass rows of Pitch::Padded
// fabs (64-byte row bases, grid/real.hpp); the kernels themselves are
// correct for any alignment.

#include <cstdint>

#include "kernels/exemplar.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define FLUXDIV_RESTRICT __restrict__
#else
#define FLUXDIV_RESTRICT
#endif

// `omp simd` asserts the loop has no loop-carried dependence even when
// OpenMP threading is off; fall back to plain loops (still auto-
// vectorizable) without OpenMP.
#if defined(_OPENMP)
#define FLUXDIV_PRAGMA_SIMD _Pragma("omp simd")
#else
#define FLUXDIV_PRAGMA_SIMD
#endif

namespace fluxdiv::kernels::pencil {

using grid::Real;

/// EvalFlux1 over a pencil of n faces: out[i] = evalFlux1(cells + i, s).
/// `cells` points at the high-side cell of face 0 within its row.
inline void evalFlux1Pencil(const Real* FLUXDIV_RESTRICT cells,
                            std::int64_t stride, int n,
                            Real* FLUXDIV_RESTRICT out) {
  FLUXDIV_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) {
    out[i] = evalFlux1(cells + i, stride);
  }
}

/// EvalFlux2 over a pencil, in place: facePhi[i] *= faceVel[i].
inline void fluxPencil(Real* FLUXDIV_RESTRICT facePhi,
                       const Real* FLUXDIV_RESTRICT faceVel, int n) {
  FLUXDIV_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) {
    facePhi[i] = evalFlux2(facePhi[i], faceVel[i]);
  }
}

/// EvalFlux2 of the velocity row with itself: facePhi[i] *= facePhi[i].
/// (The CLO baseline multiplies the velocity component last, where both
/// operands are the same row — the aliasing case fluxPencil forbids.)
inline void fluxSquarePencil(Real* FLUXDIV_RESTRICT facePhi, int n) {
  FLUXDIV_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) {
    facePhi[i] = evalFlux2(facePhi[i], facePhi[i]);
  }
}

/// Accumulation over a pencil of n cells:
/// out[i] += scale * (flux[i + stride] - flux[i]).
inline void accumulatePencil(const Real* FLUXDIV_RESTRICT flux,
                             std::int64_t stride, int n, Real scale,
                             Real* FLUXDIV_RESTRICT out) {
  FLUXDIV_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) {
    out[i] += scale * (flux[i + stride] - flux[i]);
  }
}

/// Whole face flux over a pencil: out[i] = EvalFlux2(EvalFlux1(cellC + i),
/// EvalFlux1(cellV + i)). cellC/cellV may alias (the velocity component's
/// own flux); out aliases neither.
inline void faceFluxPencil(const Real* cellC, const Real* cellV,
                           std::int64_t stride, int n,
                           Real* FLUXDIV_RESTRICT out) {
  FLUXDIV_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) {
    out[i] = faceFlux(cellC + i, cellV + i, stride);
  }
}

/// Face flux with the face velocity already averaged (the CLO executors'
/// precomputed-velocity form): out[i] = EvalFlux1(cells + i) * vel[i].
inline void evalFlux1MulPencil(const Real* FLUXDIV_RESTRICT cells,
                               std::int64_t stride,
                               const Real* FLUXDIV_RESTRICT vel, int n,
                               Real* FLUXDIV_RESTRICT out) {
  FLUXDIV_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) {
    out[i] = evalFlux2(evalFlux1(cells + i, stride), vel[i]);
  }
}

/// The fused sweep's per-direction row step: accumulate the flux
/// difference between a freshly computed high-face row and the carried
/// low-face row, then roll the carry forward:
///   out[i] += scale * (hiFlux[i] - carry[i]);  carry[i] = hiFlux[i].
/// On a sweep's low boundary the caller pre-fills `carry` with the fresh
/// low-face fluxes (exactly what the per-cell `fresh*` branches computed).
inline void fusedFaceDiffPencil(const Real* FLUXDIV_RESTRICT hiFlux,
                                Real* FLUXDIV_RESTRICT carry, int n,
                                Real scale, Real* FLUXDIV_RESTRICT out) {
  FLUXDIV_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) {
    out[i] += scale * (hiFlux[i] - carry[i]);
    carry[i] = hiFlux[i];
  }
}

/// The fused serial sweep's whole row step, one output row of one
/// component: the x difference of the row's n+1 face fluxes `fx`, then
/// for y and z the difference between the high-face flux hiY(i)/hiZ(i),
/// computed here, and the carried low-face flux, whose carry rolls
/// forward. Each element accumulates in a register and is stored once:
///   v = Accumulate ? out[i] : +0.0;
///   v += scale * (fx[i + 1] - fx[i]);
///   v += scale * (hiY(i) - carryY[i]);  carryY[i] = hiY(i);
///   v += scale * (hiZ(i) - carryZ[i]);  carryZ[i] = hiZ(i);
///   out[i] = v;
/// These are the per-element operations of accumulatePencil and two
/// fusedFaceDiffPencil passes over the row (a zeroed row when not
/// Accumulate), in that order, so the bits are the same, down to the
/// sign of a zero: +0.0 + -0.0 is +0.0 in memory and in a register.
template <bool Accumulate, typename HiY, typename HiZ>
inline void fusedRowPencil(const Real* FLUXDIV_RESTRICT fx, HiY&& hiY,
                           HiZ&& hiZ, Real* FLUXDIV_RESTRICT carryY,
                           Real* FLUXDIV_RESTRICT carryZ, int n, Real scale,
                           Real* FLUXDIV_RESTRICT out) {
  FLUXDIV_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) {
    Real v = Accumulate ? out[i] : 0.0;
    v += scale * (fx[i + 1] - fx[i]);
    const Real hy = hiY(i);
    v += scale * (hy - carryY[i]);
    carryY[i] = hy;
    const Real hz = hiZ(i);
    v += scale * (hz - carryZ[i]);
    carryZ[i] = hz;
    out[i] = v;
  }
}

/// Plain pencil copy (velocity extraction in the CLI baseline).
inline void copyPencil(const Real* FLUXDIV_RESTRICT src, int n,
                       Real* FLUXDIV_RESTRICT dst) {
  FLUXDIV_PRAGMA_SIMD
  for (int i = 0; i < n; ++i) {
    dst[i] = src[i];
  }
}

/// Compile-time configuration of the pencil layer, for report headers and
/// the perf docs.
struct PencilConfig {
  int simdDoubles;       ///< grid::kSimdDoubles (the padding multiple)
  std::size_t alignment; ///< grid::kFabAlignment
  bool ompSimd;          ///< compiled with #pragma omp simd active
};

[[nodiscard]] PencilConfig pencilConfig();

} // namespace fluxdiv::kernels::pencil
