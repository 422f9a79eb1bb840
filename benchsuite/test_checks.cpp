// The benchmark's output checks must catch a corrupted state: one flipped
// bit in one cell, one NaN, and a hash that does not match.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "checks.hpp"
#include "core/variant.hpp"
#include "grid/norms.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "solvers/integrator.hpp"

namespace fluxdiv::benchsuite {
namespace {

using grid::LevelData;

/// A periodic 16^3 domain as 8 boxes of 8^3, exemplar initial data.
LevelData makeLevel() {
  const grid::DisjointBoxLayout layout(
      grid::ProblemDomain(grid::Box::cube(16)), 8);
  LevelData u(layout, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(u);
  return u;
}

/// Flip the lowest mantissa bit of one interior cell of box 3, component 2.
void flipOneBit(LevelData& u) {
  grid::Real& v = u[3](u.validBox(3).lo() + grid::IntVect(1, 2, 3), 2);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1U;
  std::memcpy(&v, &bits, sizeof bits);
}

TEST(BenchChecks, IdenticalStatesPass) {
  const LevelData a = makeLevel();
  const LevelData b = makeLevel();
  EXPECT_EQ(compareBitwise(a, b), "");
  EXPECT_EQ(checkFinite(a), "");
  EXPECT_EQ(checkHash(validHash(a), b), "");
}

TEST(BenchChecks, OneFlippedCellIsCaught) {
  const LevelData a = makeLevel();
  LevelData b = makeLevel();
  flipOneBit(b);
  const std::string diag = compareBitwise(a, b);
  EXPECT_NE(diag.find("box 3 comp 2 cell"), std::string::npos) << diag;
  EXPECT_NE(checkHash(validHash(a), b), "");
}

TEST(BenchChecks, GhostCellsAreNotCompared) {
  const LevelData a = makeLevel();
  LevelData b = makeLevel();
  b[0](b.validBox(0).lo() - grid::IntVect::unit(1), 0) = 42.0;
  EXPECT_EQ(compareBitwise(a, b), "");
  EXPECT_EQ(validHash(a), validHash(b));
}

TEST(BenchChecks, OneNaNIsCaught) {
  LevelData u = makeLevel();
  u[5](u.validBox(5).hi(), 4) = std::numeric_limits<grid::Real>::quiet_NaN();
  const std::string diag = checkFinite(u);
  EXPECT_NE(diag.find("box 5 comp 4"), std::string::npos) << diag;
}

TEST(BenchChecks, WrongHashIsCaught) {
  const LevelData u = makeLevel();
  EXPECT_NE(checkHash(validHash(u) ^ 1U, u), "");
}

TEST(BenchChecks, ConservationHoldsOverStepsAndCatchesASourceTerm) {
  LevelData u = makeLevel();
  const std::array<grid::Real, 8> sums0 = grid::levelSums(u);
  solvers::TimeIntegrator integ(solvers::Scheme::RK4, u.layout());
  solvers::FluxDivRhs rhs(
      core::makeShiftFuse(core::ParallelGranularity::WithinBox), 2);
  for (int t = 0; t < 3; ++t) {
    integ.advance(u, 1e-4, rhs);
  }
  EXPECT_EQ(checkConservation(sums0, u, 1e-10), "");
  u[0](u.validBox(0).lo(), 1) += 1.0;
  EXPECT_NE(checkConservation(sums0, u, 1e-10), "");
}

} // namespace
} // namespace fluxdiv::benchsuite
