// Property suite: stepcheck's liveness verdicts cross-validated against
// a concrete per-cell oracle. The checker tracks per slot only who wrote
// its valid region and its ghost frame; the oracle here executes the same
// recorded StepProgram cell by cell on a 1-D box, tracking which cells
// each op reads and writes through a g-wide stencil, and shares no code
// with the checker. A periodic box exchanges both ghost sides; a wall-bounded
// one has a wall on its low side, so its Exchange fills the high side and
// its BoundaryFill the low side. The bridge properties, over every scheme
// x step count with and without walls and the seeded mutations:
//
//   checker Ok               => the program reads nothing undefined
//   predicts ReadBeforeWrite => the mutant's first undefined read is at
//                               the predicted op

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/mutate.hpp"
#include "analysis/stepcheck.hpp"
#include "core/stepprogram.hpp"
#include "kernels/footprint.hpp"
#include "solvers/integrator.hpp"

namespace fluxdiv::analysis {
namespace {

using core::StepOp;
using core::StepOpKind;
using core::StepProgram;
using mutate::StepMutation;
using solvers::Scheme;

constexpr int kGhost = kernels::kNumGhost;
constexpr int kCells = 17; ///< interior cells; odd, larger than any halo

/// Per-cell definedness of every slot over [-kGhost, kCells + kGhost):
/// u starts defined everywhere (its ghosts hold stale but written
/// values), stage temps nowhere.
struct OracleState {
  std::vector<std::vector<char>> def;
  bool walls = false;
  int undefinedAtOp = -1; ///< first op that read an undefined cell
};

OracleState initState(const StepProgram& prog, bool walls) {
  OracleState st;
  st.walls = walls;
  st.def.assign(static_cast<std::size_t>(prog.nSlots),
                std::vector<char>(kCells + 2 * kGhost, 0));
  st.def[0].assign(kCells + 2 * kGhost, 1);
  return st;
}

/// Execute op `opIdx` of `prog` cell by cell: an exchange or boundary
/// fill writes kGhost ghost layers from interior cells, every other op
/// runs on the interior.
void applyOp(OracleState& st, const StepProgram& prog, std::size_t opIdx) {
  const StepOp& op = prog.ops[opIdx];
  std::vector<char>& dst = st.def[static_cast<std::size_t>(op.dst)];
  const std::vector<char>& src = st.def[static_cast<std::size_t>(op.src)];
  const auto read = [&st, opIdx](const std::vector<char>& f, int i) {
    if (f[static_cast<std::size_t>(i + kGhost)] == 0 &&
        st.undefinedAtOp < 0) {
      st.undefinedAtOp = static_cast<int>(opIdx);
    }
  };
  const auto write = [](std::vector<char>& f, int i) {
    f[static_cast<std::size_t>(i + kGhost)] = 1;
  };
  switch (op.kind) {
  case StepOpKind::Exchange:
    // Periodic: ghost layer L holds the neighbor's valid cell, which on
    // one box is the interior cell L-1 in from the opposite side. The
    // wall side has no neighbor.
    for (int L = 1; L <= kGhost; ++L) {
      if (!st.walls) {
        read(dst, kCells - L);
        write(dst, -L);
      }
      read(dst, L - 1);
      write(dst, kCells - 1 + L);
    }
    break;
  case StepOpKind::BoundaryFill:
    // A reflecting wall on the low side: ghost layer L mirrors interior
    // cell L-1.
    for (int L = 1; L <= kGhost; ++L) {
      read(dst, L - 1);
      write(dst, -L);
    }
    break;
  case StepOpKind::RhsEval:
    for (int i = 0; i < kCells; ++i) {
      for (int d = -kGhost; d <= kGhost; ++d) {
        read(src, i + d);
      }
    }
    for (int i = 0; i < kCells; ++i) {
      write(dst, i);
    }
    break;
  case StepOpKind::CopySlot: // overwrites: old dst is not read
  case StepOpKind::AxpySlot:
  case StepOpKind::ScaleSlot:
    for (int i = 0; i < kCells; ++i) {
      if (op.kind != StepOpKind::ScaleSlot) {
        read(src, i);
      }
      if (op.kind != StepOpKind::CopySlot) {
        read(dst, i);
      }
      write(dst, i);
    }
    break;
  }
}

/// The first op of `prog` that reads an undefined cell, or -1. Like the
/// checker, the run stops there.
int firstUndefinedRead(const StepProgram& prog, bool walls) {
  OracleState st = initState(prog, walls);
  for (std::size_t i = 0; i < prog.ops.size() && st.undefinedAtOp < 0;
       ++i) {
    applyOp(st, prog, i);
  }
  return st.undefinedAtOp;
}

std::string tag(Scheme scheme, int steps, bool walls) {
  return std::string(solvers::schemeName(scheme)) + " x" +
         std::to_string(steps) + (walls ? " walls" : "");
}

TEST(StepCheckProps, CheckerOkImpliesNoUndefinedRead) {
  for (const bool walls : {false, true}) {
    for (const Scheme scheme : solvers::kSchemes) {
      for (const int steps : {1, 2, 3}) {
        const StepProgram prog =
            solvers::buildStepProgram(scheme, /*dt=*/1e-3, steps, walls);
        ASSERT_TRUE(checkStepProgram(prog).ok())
            << tag(scheme, steps, walls);
        EXPECT_EQ(firstUndefinedRead(prog, walls), -1)
            << tag(scheme, steps, walls)
            << ": checker passed a program the concrete oracle reads "
               "undefined cells in";
      }
    }
  }
}

TEST(StepCheckProps, PredictedFailuresAreConcretelyReal) {
  int mutants = 0;
  for (const bool walls : {false, true}) {
    for (const Scheme scheme : solvers::kSchemes) {
      for (const int steps : {1, 2, 3}) {
        const StepProgram prog =
            solvers::buildStepProgram(scheme, /*dt=*/1e-3, steps, walls);
        for (std::uint64_t seed = 0; seed < 12; ++seed) {
          for (const StepMutation& m :
               {mutate::dropStepExchange(prog, seed),
                mutate::reorderStepOps(prog, seed)}) {
            if (!m.valid) {
              continue;
            }
            ++mutants;
            const StepCheckReport rep = checkStepProgram(m.prog);
            ASSERT_FALSE(rep.ok()) << m.what;
            EXPECT_EQ(firstUndefinedRead(m.prog, walls),
                      rep.diagnostics[0].op)
                << tag(scheme, steps, walls) << ", seed " << seed << ": "
                << m.what << ": checker reports a read of never-written "
                             "cells there";
          }
        }
      }
    }
  }
  EXPECT_GT(mutants, 0);
}

} // namespace
} // namespace fluxdiv::analysis
