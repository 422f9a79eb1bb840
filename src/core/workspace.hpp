#pragma once
// Per-worker scratch storage for the schedule executors, with byte
// accounting. The paper's Table I compares the temporary-data footprint of
// the schedule categories; Workspace::peakBytes() is the measured side of
// that comparison (see bench_table1_tempdata).

#include <array>
#include <cstddef>
#include <vector>

#include "grid/farraybox.hpp"

namespace fluxdiv::core {

/// Named scratch slots. A slot holds either an FArrayBox or a flat Real
/// buffer; executors key their temporaries by slot so repeated runs reuse
/// allocations instead of thrashing the allocator.
enum class Slot : int {
  Flux = 0,      ///< face-centered flux temporary (baseline / basic OT)
  Velocity,      ///< face-centered normal-velocity temporary
  VelocityX,     ///< per-direction velocity precomputes (CLO shift-fuse)
  VelocityY,
  VelocityZ,
  CarryX,        ///< shift-fuse flux carries: pencil / row / plane
  CarryY,
  CarryZ,
  Extra,
  Halo,          ///< a gathered run of one-tile boxes (step-graph RHS)
  kCount
};

/// Scratch arena owned by one worker (or shared by a box's tasks for the
/// within-box cache structures).
class Workspace {
public:
  /// FArrayBox scratch in `slot`, (re)defined iff the requested shape
  /// differs from the current one. Contents are unspecified on return.
  grid::FArrayBox& fab(Slot slot, const grid::Box& box, int ncomp);

  /// Flat Real buffer in `slot` with at least `n` elements. Contents are
  /// unspecified on return (executors must write before reading).
  grid::Real* buffer(Slot slot, std::size_t n);

  /// Current bytes held across all slots.
  [[nodiscard]] std::size_t bytes() const;
  /// High-water mark of bytes() over the workspace's lifetime.
  [[nodiscard]] std::size_t peakBytes() const { return peak_; }

  /// Release all storage (keeps the peak counter).
  void clear();

private:
  void notePeak();

  std::array<grid::FArrayBox, static_cast<std::size_t>(Slot::kCount)> fabs_;
  std::array<std::vector<grid::Real>, static_cast<std::size_t>(Slot::kCount)>
      buffers_;
  std::size_t peak_ = 0;
};

/// One workspace per TaskPool worker, indexed by the worker id a task
/// receives.
class WorkspacePool {
public:
  explicit WorkspacePool(int nThreads = 0) { resize(nThreads); }

  void resize(int nThreads) {
    if (static_cast<int>(pool_.size()) < nThreads) {
      pool_.resize(static_cast<std::size_t>(nThreads));
    }
  }

  [[nodiscard]] int size() const { return static_cast<int>(pool_.size()); }

  Workspace& operator[](int tid) {
    return pool_[static_cast<std::size_t>(tid)];
  }

  /// Largest per-worker peak across the pool.
  [[nodiscard]] std::size_t maxPeakBytes() const;
  /// Sum of per-worker peaks (the "P x per-tile" footprint of Table I's
  /// overlapped-tile row).
  [[nodiscard]] std::size_t totalPeakBytes() const;

private:
  std::vector<Workspace> pool_;
};

} // namespace fluxdiv::core
