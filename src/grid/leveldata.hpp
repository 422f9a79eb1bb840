#pragma once
// LevelData: solution data for one refinement level — one FArrayBox per box
// of a DisjointBoxLayout, each allocated with a ghost halo. exchange()
// fills every ghost cell from the neighboring boxes' valid cells (with
// periodic wrap), which is the on-node stand-in for Chombo's MPI ghost
// exchange. The step-graph executor (core/stepgraph.hpp) runs the same
// plan's ops (copier().ops()) as individual tasks, so interior compute
// overlaps the halo copies instead of waiting on the exchange() barrier.

#include <cstdint>
#include <vector>

#include "grid/copier.hpp"
#include "grid/farraybox.hpp"
#include "grid/layout.hpp"

namespace fluxdiv::grid {

/// Per-level, per-box solution storage with ghost cells.
class LevelData {
public:
  LevelData() = default;

  /// Allocate `ncomp` components over every box of `layout`, each grown by
  /// `nghost` ghost layers. Init::Zero zero-fills on the constructing
  /// thread (the seed behavior); Init::Deferred leaves contents
  /// unspecified so the first writer places the pages. The exchange plan
  /// is built eagerly so its cost is not attributed to the first exchange.
  LevelData(const DisjointBoxLayout& layout, int ncomp, int nghost,
            Pitch pitch = Pitch::Padded, Init init = Init::Zero);

  [[nodiscard]] const DisjointBoxLayout& layout() const { return layout_; }
  [[nodiscard]] int nComp() const { return ncomp_; }
  [[nodiscard]] int nGhost() const { return nghost_; }
  [[nodiscard]] std::size_t size() const { return fabs_.size(); }

  FArrayBox& operator[](std::size_t idx) { return fabs_[idx]; }
  const FArrayBox& operator[](std::size_t idx) const { return fabs_[idx]; }

  /// Valid (non-ghost) region of box idx.
  [[nodiscard]] Box validBox(std::size_t idx) const {
    return layout_.box(idx);
  }

  /// Fill all ghost cells from neighbors' valid cells: the plan's copy
  /// operations, serially and in plan order.
  void exchange();

  /// Number of ghost-exchange bytes moved per exchange() call (empty
  /// intersection ops are dropped from the plan and excluded here).
  [[nodiscard]] std::size_t exchangeBytes() const {
    return copier_.bytesPerExchange(ncomp_);
  }

  /// The ghost-exchange plan this level executes. Read-only introspection
  /// for static analysis (analysis/commcheck) and the verification gates;
  /// the plan is immutable after construction.
  [[nodiscard]] const Copier& copier() const { return copier_; }

  /// Total allocated cells (valid + ghost) across all boxes, per component.
  [[nodiscard]] std::int64_t totalCellsAllocated() const;
  /// Total valid (physical) cells across all boxes, per component.
  [[nodiscard]] std::int64_t totalCellsValid() const;

  /// Max |a-b| over the valid regions of two levels on any layouts covering
  /// the same domain (used to check cross-box-size equivalence). NaN when
  /// any compared difference is NaN; blind to the sign of zero, like
  /// FArrayBox::maxAbsDiff.
  static Real maxAbsDiffValid(const LevelData& a, const LevelData& b);

private:
  DisjointBoxLayout layout_;
  int ncomp_ = 0;
  int nghost_ = 0;
  Copier copier_;
  std::vector<FArrayBox> fabs_;
};

} // namespace fluxdiv::grid
