#pragma once
// The level matrix two suites share: the exchange-plan checker proves
// each layout's Copier plan exact and matched (tests/analysis/
// test_commcheck.cpp), and the distsim accounting identities hold for
// each layout under rank partitions {1,2,4,8} (tests/distsim/
// test_comm_model.cpp).

#include <array>
#include <string>
#include <vector>

#include "grid/box.hpp"
#include "grid/layout.hpp"

namespace fluxdiv::test {

/// A named layout and the ghost depth its exchange fills.
struct NamedLayout {
  std::string name;
  grid::DisjointBoxLayout dbl;
  int nghost;
};

/// Near-cubic per-axis box counts whose product is >= nBoxes.
inline grid::IntVect factorBoxes(int nBoxes) {
  grid::IntVect counts = grid::IntVect::unit(1);
  while (counts.product() < nBoxes) {
    int smallest = 0;
    for (int d = 1; d < grid::SpaceDim; ++d) {
      if (counts[d] < counts[smallest]) {
        smallest = d;
      }
    }
    counts[smallest] += 1;
  }
  return counts;
}

/// 36 level shapes: 8 x 16^3, 27 x 8^3, 64 x 8^3 and 16 x 8^3 boxes, at
/// ghost depths 1, 2 and 4, each over periodic, walled and
/// mixed-periodicity domains.
inline std::vector<NamedLayout> levelMatrix() {
  struct Shape {
    int nBoxes;
    int boxSize;
  };
  std::vector<NamedLayout> out;
  for (const Shape& sh :
       {Shape{8, 16}, Shape{27, 8}, Shape{64, 8}, Shape{16, 8}}) {
    const grid::Box domBox(grid::IntVect::zero(),
                           factorBoxes(sh.nBoxes) * sh.boxSize -
                               grid::IntVect::unit(1));
    for (const int ghost : {1, 2, 4}) {
      const std::string tag = std::to_string(sh.nBoxes) + "@" +
                              std::to_string(sh.boxSize) + " g" +
                              std::to_string(ghost);
      out.push_back({"periodic " + tag,
                     grid::DisjointBoxLayout(grid::ProblemDomain(domBox),
                                             sh.boxSize),
                     ghost});
      out.push_back({"walls " + tag,
                     grid::DisjointBoxLayout(
                         grid::ProblemDomain(domBox, /*periodicAll=*/false),
                         sh.boxSize),
                     ghost});
      out.push_back(
          {"mixed " + tag,
           grid::DisjointBoxLayout(
               grid::ProblemDomain(domBox,
                                   std::array<bool, 3>{true, false, true}),
               sh.boxSize),
           ghost});
    }
  }
  return out;
}

} // namespace fluxdiv::test
