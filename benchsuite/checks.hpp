#pragma once
// Output checks of the benchmark: every timed run must leave a state the
// benchmark can prove correct, or the run counts as failed. Each check
// returns an empty string on success and a one-line diagnostic naming the
// first offending cell otherwise.

#include <array>
#include <cstdint>
#include <string>

#include "grid/leveldata.hpp"

namespace fluxdiv::benchsuite {

/// FNV-1a digest of the bytes of every valid value of `u` (boxes in order,
/// then components, then cells in x-fastest order). Ghost cells and row
/// padding are excluded, so equal solutions hash equal regardless of
/// allocation.
std::uint64_t validHash(const grid::LevelData& u);

/// Bit-for-bit equality of the valid values of two levels on one layout.
std::string compareBitwise(const grid::LevelData& want,
                           const grid::LevelData& got);

/// Every valid value is finite.
std::string checkFinite(const grid::LevelData& u);

/// Each component's level sum moved by at most `relTol` times its L1 norm
/// since `sums0` was taken (the flux-divergence update is conservative on a
/// periodic domain, so only rounding may move it).
std::string checkConservation(const std::array<grid::Real, 8>& sums0,
                              const grid::LevelData& u, double relTol);

/// The valid data of `u` hashes to `want`.
std::string checkHash(std::uint64_t want, const grid::LevelData& u);

} // namespace fluxdiv::benchsuite
