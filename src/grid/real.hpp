#pragma once
// Floating-point type of all solution data. The paper's exemplar is
// compiled for 64-bit floats (Sec. III-C); so is this reproduction.
//
// This header also fixes the storage contract the vectorized pencil
// kernels rely on (see docs/perf.md):
//   * kFabAlignment  — every FArrayBox allocation starts on a 64-byte
//     boundary (one full cache line / one AVX-512 vector of doubles);
//   * kSimdDoubles   — the x-pitch padding multiple. Padded fabs round
//     their row pitch up to a multiple of this, so every (j, k, c) row
//     base stays kFabAlignment-aligned. Override at configure time with
//     -DFLUXDIV_SIMD_WIDTH=<doubles> (CMake option of the same name).

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

// Padding multiple in doubles. 8 doubles = 64 bytes = one cache line,
// which is also the widest hardware vector in common use (AVX-512).
#ifndef FLUXDIV_SIMD_WIDTH
#define FLUXDIV_SIMD_WIDTH 8
#endif

namespace fluxdiv::grid {

using Real = double;

/// Allocation alignment of all fab storage (bytes).
inline constexpr std::size_t kFabAlignment = 64;

/// Row-pitch padding multiple (doubles) of Pitch::Padded fabs.
inline constexpr int kSimdDoubles = FLUXDIV_SIMD_WIDTH;
static_assert(kSimdDoubles > 0 && (kSimdDoubles & (kSimdDoubles - 1)) == 0,
              "FLUXDIV_SIMD_WIDTH must be a positive power of two");
static_assert(kSimdDoubles * sizeof(Real) <= kFabAlignment ||
                  kSimdDoubles * sizeof(Real) % kFabAlignment == 0,
              "pitch multiple and allocation alignment must compose");

/// Round a row length up to the padding multiple.
[[nodiscard]] constexpr std::int64_t paddedPitch(std::int64_t n) {
  return (n + kSimdDoubles - 1) / kSimdDoubles * kSimdDoubles;
}

/// Minimal aligned allocator over C++17 aligned operator new. Keeps
/// std::vector as the storage container (zero-init, move semantics, byte
/// accounting) while guaranteeing kFabAlignment for element 0.
template <typename T, std::size_t Align = kFabAlignment>
struct AlignedAllocator {
  using value_type = T;
  // Non-type Align defeats allocator_traits' default rebind; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0);

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Align>&) const noexcept {
    return false;
  }
};

/// The storage vector of FArrayBox: 64-byte-aligned doubles.
using AlignedVector = std::vector<Real, AlignedAllocator<Real>>;

/// AlignedAllocator whose value-less construct() is a no-op, so
/// vector::resize leaves new elements default-initialized (uninitialized
/// for Real) instead of zero-filling them. This keeps allocation from
/// touching — and therefore NUMA-placing — the new pages: FArrayBox
/// defines its storage through this allocator and fills explicitly
/// (Init::Zero) or defers the first touch to the first writer
/// (Init::Deferred; per-worker scratch in core/workspace uses it).
template <typename T, std::size_t Align = kFabAlignment>
struct AlignedUninitAllocator : AlignedAllocator<T, Align> {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = AlignedUninitAllocator<U, Align>;
  };

  AlignedUninitAllocator() = default;
  template <typename U>
  AlignedUninitAllocator(const AlignedUninitAllocator<U, Align>&) noexcept {
  }

  template <typename U>
  void construct(U*) noexcept {} // default-init: no store, no page touch
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Fab storage: 64-byte-aligned doubles with first-touch-friendly resize.
using FabVector = std::vector<Real, AlignedUninitAllocator<Real>>;

} // namespace fluxdiv::grid
