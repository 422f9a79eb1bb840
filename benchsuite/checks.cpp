#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

#include "grid/norms.hpp"

namespace fluxdiv::benchsuite {

using grid::Box;
using grid::LevelData;
using grid::Real;

namespace {

/// Call f(box, comp, j, k, row) for every valid x-row of `u`, where `row`
/// points at the row's first valid value; stop when f returns false.
template <typename F> void forEachValidRow(const LevelData& u, F&& f) {
  for (std::size_t b = 0; b < u.size(); ++b) {
    const Box valid = u.validBox(b);
    const grid::FArrayBox& fab = u[b];
    for (int c = 0; c < u.nComp(); ++c) {
      const Real* base = fab.dataPtr(c);
      for (int k = valid.lo(2); k <= valid.hi(2); ++k) {
        for (int j = valid.lo(1); j <= valid.hi(1); ++j) {
          if (!f(b, c, j, k, base + fab.offset(valid.lo(0), j, k))) {
            return;
          }
        }
      }
    }
  }
}

std::string where(std::size_t box, int comp, int i, int j, int k) {
  std::ostringstream os;
  os << "box " << box << " comp " << comp << " cell (" << i << "," << j
     << "," << k << ")";
  return os.str();
}

} // namespace

std::uint64_t validHash(const LevelData& u) {
  std::uint64_t h = 14695981039346656037ULL;
  forEachValidRow(u, [&](std::size_t b, int, int, int, const Real* row) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(row);
    const std::size_t n =
        static_cast<std::size_t>(u.validBox(b).size(0)) * sizeof(Real);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
    return true;
  });
  return h;
}

std::string compareBitwise(const LevelData& want, const LevelData& got) {
  if (want.size() != got.size() || want.nComp() != got.nComp()) {
    return "levels differ in box or component count";
  }
  std::string diag;
  forEachValidRow(want, [&](std::size_t b, int c, int j, int k,
                            const Real* row) {
    const Box valid = want.validBox(b);
    if (got.validBox(b) != valid) {
      diag = "levels differ in layout at box " + std::to_string(b);
      return false;
    }
    const Real* other = got[b].dataPtr(c) + got[b].offset(valid.lo(0), j, k);
    const std::size_t n = static_cast<std::size_t>(valid.size(0));
    if (std::memcmp(row, other, n * sizeof(Real)) == 0) {
      return true;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (std::memcmp(row + i, other + i, sizeof(Real)) != 0) {
        std::ostringstream os;
        os << "not bit-identical at "
           << where(b, c, valid.lo(0) + static_cast<int>(i), j, k)
           << ": want " << row[i] << ", got " << other[i];
        diag = os.str();
        break;
      }
    }
    return false;
  });
  return diag;
}

std::string checkFinite(const LevelData& u) {
  std::string diag;
  forEachValidRow(u, [&](std::size_t b, int c, int j, int k,
                         const Real* row) {
    const int lo = u.validBox(b).lo(0);
    for (int i = 0; i < u.validBox(b).size(0); ++i) {
      if (!std::isfinite(row[i])) {
        diag = "non-finite value " + std::to_string(row[i]) + " at " +
               where(b, c, lo + i, j, k);
        return false;
      }
    }
    return true;
  });
  return diag;
}

std::string checkConservation(const std::array<Real, 8>& sums0,
                              const LevelData& u, double relTol) {
  const std::array<Real, 8> sums = grid::levelSums(u);
  for (int c = 0; c < u.nComp(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    const double drift = std::abs(sums[i] - sums0[i]);
    const double limit = relTol * grid::levelNormL1(u, c);
    if (!(drift <= limit)) {
      std::ostringstream os;
      os << "component " << c << " level sum drifted by " << drift
         << " (limit " << limit << ")";
      return os.str();
    }
  }
  return {};
}

std::string checkHash(std::uint64_t want, const LevelData& u) {
  const std::uint64_t got = validHash(u);
  if (got == want) {
    return {};
  }
  std::ostringstream os;
  os << "valid-data hash " << std::hex << got << " != reference " << want;
  return os.str();
}

} // namespace fluxdiv::benchsuite
