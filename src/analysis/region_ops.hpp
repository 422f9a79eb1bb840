#pragma once
// Shared region-set operations built on the primitives of region.hpp.
// The region checkers (graphcheck: G3 ghost coverage, commcheck: C1
// exchange exactness) ask the same two questions — "do these boxes cover that target, and if not, where is the
// first hole?" and "do any two of these boxes overlap, and where?" — so
// the cover-collection and witness-extraction logic lives here once
// instead of being reimplemented per checker.

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/region.hpp"
#include "grid/box.hpp"

namespace fluxdiv::analysis {

/// Incrementally built union of boxes with coverage queries against it.
/// The checkers collect candidate producer/filler regions into one of
/// these, then ask for the first hole in the target they must cover.
class CoverSet {
public:
  CoverSet() = default;
  explicit CoverSet(std::vector<Box> boxes) : boxes_(std::move(boxes)) {}

  /// Add one box to the union; empty boxes are ignored.
  void add(const Box& b) {
    if (!b.empty()) {
      boxes_.push_back(b);
    }
  }

  [[nodiscard]] const std::vector<Box>& boxes() const { return boxes_; }
  [[nodiscard]] bool empty() const { return boxes_.empty(); }
  void clear() { boxes_.clear(); }

  /// True if `target` is fully inside the union.
  [[nodiscard]] bool covers(const Box& target) const {
    return covered(target, boxes_);
  }

  /// A maximal rectangular piece of `target` outside the union; the empty
  /// box when covered. This is the witness region of a coverage
  /// diagnostic.
  [[nodiscard]] Box firstMissing(const Box& target) const {
    return firstUncovered(target, boxes_);
  }

  /// Rectangular decomposition of every cell of `target` outside the
  /// union (disjoint pieces; empty vector when covered).
  [[nodiscard]] std::vector<Box> missingPieces(const Box& target) const;

  /// Total distinct cells in the union.
  [[nodiscard]] std::int64_t unionCells() const { return unionPts(boxes_); }

private:
  std::vector<Box> boxes_;
};

/// Rectangular decomposition of `target` minus the union of `cuts`:
/// disjoint boxes covering exactly the cells of `target` in no cut.
std::vector<Box> subtractAll(const Box& target, const std::vector<Box>& cuts);

/// First overlapping pair among `boxes` (indices into the input) together
/// with the shared region — the witness of a double-write diagnostic.
/// std::nullopt when the boxes are pairwise disjoint.
struct PairOverlap {
  std::size_t first = 0;
  std::size_t second = 0;
  Box region;
};
std::optional<PairOverlap> firstPairOverlap(const std::vector<Box>& boxes);

} // namespace fluxdiv::analysis
