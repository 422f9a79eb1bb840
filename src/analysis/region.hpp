#pragma once
// Region algebra for the checkers and the cost model: box subtraction,
// coverage queries, and union volumes over sets of boxes. The checkers'
// questions are of the form "is this read region fully inside that union
// of written regions, and if not, which cells are missing?"; the cost
// model's are "how many distinct cells does this union of accesses touch?"
// Both are answered exactly (rectangular decomposition / compressed
// coordinates — no full-resolution rasterization).

#include <cstdint>
#include <vector>

#include "grid/box.hpp"

namespace fluxdiv::analysis {

using grid::Box;

/// Rectangular decomposition of `a` minus `b`: up to six disjoint boxes
/// whose union is exactly the points of `a` not in `b`. Returns {a} when
/// the boxes do not intersect and {} when `b` covers `a`.
std::vector<Box> boxDiff(const Box& a, const Box& b);

/// True if `target` is fully covered by the union of `cover`.
bool covered(const Box& target, const std::vector<Box>& cover);

/// A maximal rectangular piece of `target` not covered by the union of
/// `cover`; the empty box when `target` is fully covered. This is the
/// "violating cell region" reported in diagnostics.
Box firstUncovered(const Box& target, const std::vector<Box>& cover);

/// Exact number of distinct points in the union of `boxes` (each point
/// counted once however many boxes cover it). Empty boxes are ignored.
/// Computed on the compressed-coordinate grid spanned by the boxes' slab
/// boundaries, so cost scales with the number of *distinct* boundaries,
/// not with box volume — tile decompositions of a 128^3 box stay cheap.
///
/// The two derived set measures the cost model needs follow from this one
/// primitive without extra machinery:
///   multiplicity excess  sum(numPts) - unionPts  (recompute volume)
///   |A intersect B|      unionPts(A) + unionPts(B) - unionPts(A ++ B)
std::int64_t unionPts(const std::vector<Box>& boxes);

} // namespace fluxdiv::analysis
