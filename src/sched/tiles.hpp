#pragma once
// Tile decomposition of a box. This module is the reproduction's stand-in
// for the CodeGen+ polyhedral loop-bound generation the paper used
// (Sec. IV-E): it materializes the iteration-space decompositions (tiles,
// wavefronts of tiles) that the generated loop bounds encoded.

#include <cstdint>
#include <vector>

#include "grid/box.hpp"

namespace fluxdiv::sched {

using grid::Box;
using grid::IntVect;

/// Decomposition of a box into a regular grid of tiles. Edge tiles are
/// clipped, so any tile size divides any box ("tile sizes were only used
/// for box sizes that were strictly larger" — we additionally permit
/// non-dividing sizes, clipped, so the sweep benches can explore freely).
class TileSet {
public:
  /// Tile `box` with cubic tiles of side `tileSize`.
  TileSet(const Box& box, int tileSize)
      : TileSet(box, IntVect::unit(tileSize)) {}

  /// Tile `box` with tiles of per-direction extents `tileSize` (pencil and
  /// slab shapes for the tile-aspect extension).
  TileSet(const Box& box, const IntVect& tileSize);

  [[nodiscard]] const Box& box() const { return box_; }
  [[nodiscard]] const IntVect& tileSize() const { return tileSize_; }
  /// Number of tiles per direction.
  [[nodiscard]] const IntVect& gridSize() const { return nTiles_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(nTiles_.product());
  }

  /// Tile coordinates of linear index (x-fastest).
  [[nodiscard]] IntVect tileCoords(std::size_t idx) const;
  /// Cell region of the tile at `coords` (clipped to the box).
  [[nodiscard]] Box tileBox(const IntVect& coords) const;
  /// Cell region of the tile with linear index `idx`.
  [[nodiscard]] Box tileBox(std::size_t idx) const {
    return tileBox(tileCoords(idx));
  }

private:
  Box box_;
  IntVect tileSize_;
  IntVect nTiles_;
};

/// Traversal order of a tile set's tiles (for schedules whose tiles are
/// independent, i.e. overlapped tiles). Lexicographic is the natural
/// x-fastest order; Morton (Z-order) keeps consecutively-visited tiles
/// spatially close, improving inter-tile cache reuse of the shared halo
/// reads — a locality knob within the paper's "328 possible variations".
enum class TileOrder { Lexicographic, Morton };

/// The permutation of tile indices realizing `order`.
std::vector<std::size_t> tileTraversal(const TileSet& tiles,
                                       TileOrder order);

/// Tiles of a TileSet grouped into wavefronts by diagonal index
/// tx + ty + tz. Tiles within one wavefront have pairwise-distinct
/// orthogonal coordinates in every direction, so the blocked-wavefront
/// schedule can execute a wavefront's tiles concurrently while sharing
/// per-direction boundary-flux caches (paper Sec. IV-C).
class TileWavefronts {
public:
  explicit TileWavefronts(const TileSet& tiles);

  /// Number of wavefronts (= sum of per-direction tile counts - 2).
  [[nodiscard]] std::size_t count() const { return fronts_.size(); }
  /// Linear tile indices in wavefront w.
  [[nodiscard]] const std::vector<std::size_t>& front(std::size_t w) const {
    return fronts_[w];
  }

private:
  std::vector<std::vector<std::size_t>> fronts_;
};

/// Iterations of a box grouped into per-cell wavefronts by diagonal index
/// i + j + k (relative to the box's low corner). Used by the shift-fuse
/// per-iteration wavefront variants (paper Sec. IV-B, Fig. 8a).
class CellWavefronts {
public:
  explicit CellWavefronts(const Box& box) : box_(box) {}

  /// Number of cell wavefronts: sum of extents - 2.
  [[nodiscard]] int count() const {
    return box_.size(0) + box_.size(1) + box_.size(2) - 2;
  }

  /// Invoke f(i, j, k) for every cell on wavefront w (any order; callers
  /// may parallelize over the invocations).
  template <typename F> void forEach(int w, F&& f) const {
    // Enumerate (j, k) then solve i = w - dj - dk where d* are offsets from
    // the box lo; skip pairs whose i falls outside the box.
    const int nx = box_.size(0);
    for (int k = box_.lo(2); k <= box_.hi(2); ++k) {
      const int dk = k - box_.lo(2);
      for (int j = box_.lo(1); j <= box_.hi(1); ++j) {
        const int di = w - dk - (j - box_.lo(1));
        if (di < 0 || di >= nx) {
          continue;
        }
        f(box_.lo(0) + di, j, k);
      }
    }
  }

  /// Cells on wavefront w as an explicit list (for loops that need random
  /// access over the wavefront's iterations).
  [[nodiscard]] std::vector<IntVect> cells(int w) const {
    std::vector<IntVect> out;
    forEach(w, [&](int i, int j, int k) { out.emplace_back(i, j, k); });
    return out;
  }

private:
  Box box_;
};

} // namespace fluxdiv::sched
