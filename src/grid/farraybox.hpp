#pragma once
// FArrayBox: the multi-component array over a Box, matching Chombo's data
// layout choice discussed in the paper (Sec. III-C): storage is
// [x, y, z, c] with x unit-stride (Fortran/column-major space dimensions)
// and the component index varying slowest. The paper notes the fast C++
// implementation caches pointer offsets per stencil point and walks
// unit-stride columns with pointer arithmetic; Stencil/dataPtr support
// exactly that idiom.

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "grid/box.hpp"
#include "grid/indexer.hpp"
#include "grid/real.hpp"

#ifdef FLUXDIV_SHADOW_CHECK
#include <memory>

#include "grid/shadow.hpp"
#endif

namespace fluxdiv::grid {

/// Row-pitch policy of an FArrayBox allocation (docs/perf.md).
enum class Pitch : std::uint8_t {
  Padded, ///< x-pitch rounded up to kSimdDoubles; every row 64B-aligned
  Dense,  ///< x-pitch == box.size(0): the packed layout of the seed code
};

/// First-fill policy of an FArrayBox allocation. Zero fills from the
/// defining thread (the seed behavior). Deferred leaves the contents
/// unspecified so the *first writer* faults — and thereby NUMA-places —
/// the pages: per-worker scratch (core/workspace) is first written by the
/// worker that uses it.
enum class Init : std::uint8_t { Zero, Deferred };

/// The per-element arithmetic of the stage combines, one x-row of `n`
/// values at a time. FArrayBox::copy/plus/mult, the eager level combines
/// (solvers::copyValid/addScaled/scaleValid) and the step graph's combines
/// all call these, so every path rounds each element alike.
///
/// dst[i] = src[i]; the rows must not overlap. Written in pairs because
/// gcc turns a plain element loop (or std::copy) into a memmove call,
/// which costs more than the copy itself on the 2- and 16-double rows of
/// a halo gather.
inline void copyRow(const Real* __restrict__ src, int n,
                    Real* __restrict__ dst) {
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const Real a = src[i];
    const Real b = src[i + 1];
    dst[i] = a;
    dst[i + 1] = b;
  }
  if (i < n) {
    dst[i] = src[i];
  }
}

/// dst[i] += scale * src[i].
inline void plusRow(const Real* src, Real scale, int n, Real* dst) {
  for (int i = 0; i < n; ++i) {
    dst[i] += scale * src[i];
  }
}

/// dst[i] *= scale.
inline void multRow(Real scale, int n, Real* dst) {
  for (int i = 0; i < n; ++i) {
    dst[i] *= scale;
  }
}

/// Multi-component double-precision array over a Box (including any ghost
/// region baked into the box).
///
/// Storage contract (relied on by kernels/pencil.hpp): data is 64-byte
/// aligned (grid::kFabAlignment), and under the default Pitch::Padded the
/// x-pitch — strideY()/pitch() — is box.size(0) rounded up to a multiple
/// of grid::kSimdDoubles, so every (j, k, c) row base is itself 64-byte
/// aligned. Code that indexes through offset()/indexer()/strides is
/// pitch-agnostic; only code assuming size() == numPts*nComp (raw dumps)
/// would break, and none remains (checkpoint IO walks rows).
class FArrayBox {
public:
  FArrayBox() = default;

  /// Allocate over `box` with `ncomp` components, zero-initialized (or
  /// left for the first writer under Init::Deferred).
  FArrayBox(const Box& box, int ncomp, Pitch pitch = Pitch::Padded,
            Init init = Init::Zero) {
    define(box, ncomp, pitch, init);
  }

  /// (Re)allocate. Previous contents are discarded (Init::Deferred leaves
  /// the new contents unspecified; write before reading).
  void define(const Box& box, int ncomp, Pitch pitch = Pitch::Padded,
              Init init = Init::Zero);

  [[nodiscard]] const Box& box() const { return box_; }
  [[nodiscard]] int nComp() const { return ncomp_; }
  [[nodiscard]] bool defined() const { return ncomp_ > 0; }

  /// Linear strides of the space dimensions; x-stride is 1 by layout.
  [[nodiscard]] std::int64_t strideY() const { return sy_; }
  [[nodiscard]] std::int64_t strideZ() const { return sz_; }
  /// Stride between components.
  [[nodiscard]] std::int64_t strideC() const { return sc_; }

  /// Allocation pitch of one x-row in doubles (== strideY()). Equals
  /// box().size(0) for Pitch::Dense; rounded up to kSimdDoubles otherwise.
  [[nodiscard]] std::int64_t pitch() const { return sy_; }
  /// Doubles of padding appended to each x-row.
  [[nodiscard]] std::int64_t pitchSlack() const {
    return sy_ - box_.size(0);
  }

  /// The shared stride accessor over this fab's allocation (pitch-aware).
  [[nodiscard]] FabIndexer indexer() const { return {box_, sy_}; }

  /// Total allocated values (pitch-padded; >= numPts * nComp).
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  /// Total allocated bytes (pitch-padded).
  [[nodiscard]] std::size_t bytes() const {
    return data_.size() * sizeof(Real);
  }

  /// Linear offset of point (i,j,k) within one component.
  [[nodiscard]] std::int64_t offset(int i, int j, int k) const {
    assert(box_.contains(IntVect(i, j, k)));
    return (i - box_.lo(0)) + sy_ * (j - box_.lo(1)) +
           sz_ * (k - box_.lo(2));
  }

  /// Pointer to the (lo of the box) element of component c. Hot loops index
  /// from this with offset()/strides (the paper's pointer-arithmetic idiom).
  [[nodiscard]] Real* dataPtr(int c = 0) {
    assert(c >= 0 && c < ncomp_);
    return data_.data() + sc_ * c;
  }
  [[nodiscard]] const Real* dataPtr(int c = 0) const {
    assert(c >= 0 && c < ncomp_);
    return data_.data() + sc_ * c;
  }

  /// Element access (checked in debug builds). Convenience for tests and
  /// non-hot code; kernels use dataPtr + strides.
  Real& operator()(const IntVect& p, int c = 0) {
    return dataPtr(c)[offset(p[0], p[1], p[2])];
  }
  Real operator()(const IntVect& p, int c = 0) const {
    return dataPtr(c)[offset(p[0], p[1], p[2])];
  }
  Real& operator()(int i, int j, int k, int c = 0) {
    return dataPtr(c)[offset(i, j, k)];
  }
  Real operator()(int i, int j, int k, int c = 0) const {
    return dataPtr(c)[offset(i, j, k)];
  }

  /// Set every value of every component to `value`.
  void setVal(Real value);
  /// Set every value of component `c` within `region` (clipped to box()).
  void setVal(Real value, const Box& region, int c);

  /// Copy `region` of component `srcComp`..`srcComp+ncomp` from `src`
  /// (regions interpreted in the shared global index space).
  void copy(const FArrayBox& src, const Box& region, int srcComp,
            int destComp, int ncomp);

  /// Copy from `src` where the source region is `region.shift(srcShift)` —
  /// the periodic-wrap case of ghost exchange.
  void copyShifted(const FArrayBox& src, const Box& region,
                   const IntVect& srcShift, int srcComp, int destComp,
                   int ncomp);

  /// this += scale * src over `region`, all components (plusRow).
  void plus(const FArrayBox& src, Real scale, const Box& region);

  /// this *= scale over `region`, all components (multRow).
  void mult(Real scale, const Box& region);

  /// Sum of component c over `region` (conservation checks).
  [[nodiscard]] Real sum(const Box& region, int c) const;

  /// Max |a-b| over `region` and components [0, ncomp) of both. A NaN
  /// difference (a NaN on either side, or inf - inf) makes the result
  /// NaN, so a NaN never compares equal to 0. It does not see the sign
  /// of zero: -0.0 against +0.0 differs by 0; compare bit patterns
  /// (memcmp) where that matters.
  static Real maxAbsDiff(const FArrayBox& a, const FArrayBox& b,
                         const Box& region);

#ifdef FLUXDIV_SHADOW_CHECK
  // Shadow-memory race-detection hooks (see grid/shadow.hpp and
  // docs/static-analysis.md). The shadow is allocated lazily on first use,
  // so untracked fabs pay only the empty member. These members exist only
  // under FLUXDIV_SHADOW_CHECK; the option is a global compile definition
  // precisely because it changes this class's layout.

  /// The fab's shadow (lazily shaped to the fab).
  [[nodiscard]] ShadowMemory& shadow() {
    ensureShadow();
    return *shadow_;
  }

  /// Start a new write epoch (call at a known whole-fab barrier point,
  /// e.g. the start of one flux-divergence evaluation).
  void shadowBeginEpoch() {
    ensureShadow();
    shadow_->beginEpoch();
  }

  /// Record that `worker` wrote `region` (clipped to the fab) x
  /// [c0, c0+nc) in the current epoch.
  void shadowRecordWrite(const Box& region, int c0, int nc, int worker) {
    ensureShadow();
    shadow_->recordWriteRegion(region & box_, c0, nc, worker);
  }

  /// Record that `worker` read `region` x [c0, c0+nc), flagging slots not
  /// produced this epoch.
  void shadowRecordRead(const Box& region, int c0, int nc, int worker) {
    ensureShadow();
    const Box r = region & box_;
    for (int c = c0; c < c0 + nc; ++c) {
      forEachCell(r, [&](int i, int j, int k) {
        shadow_->recordRead(IntVect(i, j, k), c, worker);
      });
    }
  }
#endif

private:
  Box box_;
  int ncomp_ = 0;
  std::int64_t sy_ = 0;
  std::int64_t sz_ = 0;
  std::int64_t sc_ = 0;
  FabVector data_;

#ifdef FLUXDIV_SHADOW_CHECK
  void ensureShadow() {
    if (!shadow_) {
      shadow_ = std::make_unique<ShadowMemory>();
    }
    if (!shadow_->defined() || shadow_->box() != box_ ||
        shadow_->nComp() != ncomp_) {
      shadow_->define(box_, ncomp_);
    }
  }

  // unique_ptr keeps FArrayBox movable (ShadowMemory owns a mutex and
  // atomics); shadow state does not follow copies — fabs are move-only
  // under FLUXDIV_SHADOW_CHECK, which LevelData and Workspace satisfy.
  std::unique_ptr<ShadowMemory> shadow_;
#endif
};

} // namespace fluxdiv::grid
