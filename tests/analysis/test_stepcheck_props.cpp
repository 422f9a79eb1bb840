// Property suite: the stepcheck abstraction cross-validated against a
// concrete per-cell oracle. The checker reasons per *layer* (L-inf ghost
// depth / interior distance); the oracle here executes the same recorded
// StepProgram cell by cell on a 1-D periodic box with real doubles, a
// deliberately asymmetric g-wide stencil, and explicit
// definedness-tracking — sharing no code with the checker. Like the
// checker, the oracle runs a program and its reference in lockstep, with
// the same alignment rule when one is shorter (common prefix, the longer
// one's extra ops alone, then aligned on the shifted index), and compares
// every slot's interior after every aligned op: stepcheck proves *per-op*
// equivalence, which is strictly stronger than final-state equivalence (a
// reordered exchange/axpy pair can converge again by the last op, and the
// checker still — correctly — rejects it). The bridge properties, over
// every scheme x step count and the seeded mutations:
//
//   checker Ok             => the program reads nothing undefined
//   predicts ValueMismatch => the runs concretely diverge at some op
//                             (and the mutant reads nothing undefined)
//   predicts ReadBeforeWrite => the mutant concretely reads an undefined
//                             cell, at the predicted op

#include <gtest/gtest.h>

#include <algorithm>
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

/// Deterministic, asymmetric stencil weights for the oracle's RHS — any
/// fixed weights work; asymmetry catches mirrored-exchange mistakes.
double stencilWeight(int d) {
  return 0.17 * d + 0.29 / (1.0 + static_cast<double>(d) * d);
}

/// Deterministic per-cell values: interior state and the *stale* garbage
/// the ghost cells hold before any exchange (both runs start identical).
double interiorValue(int i) { return 0.3 + 0.07 * i + 0.001 * i * i; }
double staleValue(int i) { return 900.0 + 1.3 * i; }

/// One concrete slot field over [-kGhost, kCells + kGhost) with per-cell
/// definedness.
struct Field {
  std::vector<double> val;
  std::vector<char> def;
};

struct OracleState {
  std::vector<Field> slots;
  bool undefinedRead = false;
  int undefinedAtOp = -1;
};

OracleState initState(const StepProgram& prog) {
  OracleState st;
  const int total = kCells + 2 * kGhost;
  st.slots.resize(static_cast<std::size_t>(prog.nSlots));
  for (int s = 0; s < prog.nSlots; ++s) {
    Field& f = st.slots[static_cast<std::size_t>(s)];
    f.val.assign(static_cast<std::size_t>(total), 0.0);
    f.def.assign(static_cast<std::size_t>(total), 0);
  }
  Field& u = st.slots[0];
  for (int i = -kGhost; i < kCells + kGhost; ++i) {
    const std::size_t k = static_cast<std::size_t>(i + kGhost);
    u.val[k] = (i >= 0 && i < kCells) ? interiorValue(i) : staleValue(i);
    u.def[k] = 1;
  }
  return st;
}

/// Execute op `opIdx` of `prog` cell by cell: an exchange fills kGhost
/// ghost layers, every other op runs on the interior.
void applyOp(OracleState& st, const StepProgram& prog, std::size_t opIdx) {
  if (st.undefinedRead) {
    return; // like the checker, stop at the first bad read
  }
  const StepOp& op = prog.ops[opIdx];
  const auto at = [](int i) { return static_cast<std::size_t>(i + kGhost); };
  Field& dst = st.slots[static_cast<std::size_t>(op.dst)];
  Field& src = st.slots[static_cast<std::size_t>(op.src)];
  const auto read = [&st, opIdx, at](const Field& f, int i) -> double {
    if (!f.def[at(i)] && !st.undefinedRead) {
      st.undefinedRead = true;
      st.undefinedAtOp = static_cast<int>(opIdx);
    }
    return f.val[at(i)];
  };
  switch (op.kind) {
  case StepOpKind::Exchange:
    // Periodic: ghost layer L holds the neighbor's valid cell, which on
    // one box is the interior cell L-1 in from the opposite side.
    for (int L = 1; L <= kGhost; ++L) {
      dst.val[at(-L)] = read(dst, kCells - L);
      dst.def[at(-L)] = 1;
      dst.val[at(kCells - 1 + L)] = read(dst, L - 1);
      dst.def[at(kCells - 1 + L)] = 1;
    }
    break;
  case StepOpKind::BoundaryFill:
    FAIL() << "oracle programs are periodic; no BoundaryFill";
    break;
  case StepOpKind::RhsEval: {
    std::vector<double> out(static_cast<std::size_t>(kCells));
    for (int i = 0; i < kCells; ++i) {
      double acc = 0.0;
      for (int d = -kGhost; d <= kGhost; ++d) {
        acc += stencilWeight(d) * read(src, i + d);
      }
      out[static_cast<std::size_t>(i)] = acc;
    }
    for (int i = 0; i < kCells; ++i) {
      dst.val[at(i)] = out[static_cast<std::size_t>(i)];
      dst.def[at(i)] = 1;
    }
    break;
  }
  case StepOpKind::CopySlot:
    for (int i = 0; i < kCells; ++i) {
      dst.val[at(i)] = read(src, i);
      dst.def[at(i)] = 1; // overwrites: old dst is not consumed
    }
    break;
  case StepOpKind::AxpySlot:
    for (int i = 0; i < kCells; ++i) {
      dst.val[at(i)] = read(dst, i) + op.scale * read(src, i);
    }
    break;
  case StepOpKind::ScaleSlot:
    for (int i = 0; i < kCells; ++i) {
      dst.val[at(i)] = op.scale * read(dst, i);
    }
    break;
  }
}

/// Bitwise comparison of every slot's interior cells defined in both
/// states (a mutated run may define slots in a different order).
bool interiorsEqual(const OracleState& a, const OracleState& b) {
  for (std::size_t s = 0; s < a.slots.size(); ++s) {
    for (int i = 0; i < kCells; ++i) {
      const std::size_t k = static_cast<std::size_t>(i + kGhost);
      if (a.slots[s].def[k] && b.slots[s].def[k] &&
          a.slots[s].val[k] != b.slots[s].val[k]) {
        return false;
      }
    }
  }
  return true;
}

/// Run the mutant and its reference in lockstep — the concrete mirror of
/// the checker's per-op comparison, aligned by the same rule.
struct OracleVerdict {
  int firstDivergeOp = -1; ///< first op after which interiors differ
  bool undefinedRead = false;
  int undefinedAtOp = -1;
  [[nodiscard]] bool diverged() const { return firstDivergeOp >= 0; }
};

OracleVerdict runLockstep(const StepProgram& prog, const StepProgram& ref) {
  OracleState run = initState(prog);
  OracleState eager = initState(ref);
  const std::size_t np = prog.ops.size();
  const std::size_t nr = ref.ops.size();
  std::size_t prefix = 0;
  while (prefix < std::min(np, nr) && prog.ops[prefix] == ref.ops[prefix]) {
    ++prefix;
  }
  const std::size_t progExtra = np > nr ? np - nr : 0;
  const std::size_t refExtra = nr > np ? nr - np : 0;
  OracleVerdict v;
  for (std::size_t i = 0; i < np; ++i) {
    if (i == prefix) {
      for (std::size_t j = prefix; j < prefix + refExtra; ++j) {
        applyOp(eager, ref, j);
      }
    }
    applyOp(run, prog, i);
    if (run.undefinedRead) {
      v.undefinedRead = true;
      v.undefinedAtOp = run.undefinedAtOp;
      return v;
    }
    if (i >= prefix && i < prefix + progExtra) {
      continue;
    }
    applyOp(eager, ref, i < prefix ? i : i + refExtra - progExtra);
    if (!interiorsEqual(run, eager)) {
      v.firstDivergeOp = static_cast<int>(i);
      return v;
    }
  }
  return v;
}

std::string tag(Scheme scheme, int steps) {
  return std::string(solvers::schemeName(scheme)) + " x" +
         std::to_string(steps);
}

TEST(StepCheckProps, CheckerOkImpliesConcreteLockstepEquality) {
  for (const Scheme scheme : solvers::kSchemes) {
    for (const int steps : {1, 2, 3}) {
      const StepProgram prog =
          solvers::buildStepProgram(scheme, /*dt=*/1e-3, steps);
      ASSERT_TRUE(checkStepProgram(prog).ok()) << tag(scheme, steps);
      const OracleVerdict v = runLockstep(prog, prog);
      EXPECT_FALSE(v.undefinedRead)
          << tag(scheme, steps) << ": checker passed a program the "
          << "concrete oracle reads undefined cells in at op "
          << v.undefinedAtOp;
      EXPECT_FALSE(v.diverged()) << tag(scheme, steps);
    }
  }
}

TEST(StepCheckProps, PredictedFailuresAreConcretelyReal) {
  // dt = 1 keeps every combine contribution the same magnitude as its
  // accumulator, so the skew mutation's 1e-12 coefficient perturbation
  // stays above one ulp of the running sum. (With a tiny dt the
  // perturbed addend can round into the identical double — the checker's
  // provenance mismatch guarantees a representable divergence only when
  // the magnitudes cooperate.)
  int dropsByKind[2] = {0, 0}; ///< drops by kind: [ValueMismatch, RBW]
  for (const Scheme scheme : solvers::kSchemes) {
    for (const int steps : {1, 3}) {
      const StepProgram prog =
          solvers::buildStepProgram(scheme, /*dt=*/1.0, steps);
      for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const StepMutation muts[] = {
            mutate::dropStepExchange(prog, seed),
            mutate::reorderStepOps(prog, seed),
            mutate::skewStepCoeff(prog, seed),
        };
        if (muts[0].valid) {
          ++dropsByKind[muts[0].expect == StepDiagKind::ReadBeforeWrite];
        }
        for (const StepMutation& m : muts) {
          if (!m.valid) {
            continue;
          }
          const std::string where = tag(scheme, steps) + ", seed " +
                                    std::to_string(seed) + ": " + m.what;
          const StepProgram& ref = m.useReference ? m.reference : m.prog;
          const OracleVerdict v = runLockstep(m.prog, ref);
          if (m.expect == StepDiagKind::ReadBeforeWrite) {
            EXPECT_TRUE(v.undefinedRead)
                << where << ": checker predicts a read of "
                           "never-written cells; the oracle read none";
            EXPECT_EQ(v.undefinedAtOp, m.witnessOp) << where;
          } else {
            EXPECT_FALSE(v.undefinedRead) << where;
            EXPECT_TRUE(v.diverged())
                << where << ": checker predicts a value divergence "
                           "the oracle cannot reproduce";
          }
        }
      }
    }
  }
  // Both regimes of a dropped exchange occur in the shipped programs: a
  // stage temp's first exchange (read before write) and a refill of u's
  // stale ghosts (value mismatch).
  EXPECT_GT(dropsByKind[0], 0);
  EXPECT_GT(dropsByKind[1], 0);
}

} // namespace
} // namespace fluxdiv::analysis
