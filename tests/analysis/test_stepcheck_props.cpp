// Property suite: the stepcheck abstraction cross-validated against a
// concrete per-cell oracle. The checker reasons per *layer* (L-inf ghost
// depth / interior distance); the oracle here executes the same recorded
// StepProgram cell by cell on a 1-D periodic box with real doubles, a
// deliberately asymmetric g-wide stencil, and explicit
// definedness-tracking — sharing no code with the checker. Like the
// checker, the oracle runs the planned program and the eager reference in
// lockstep and compares every slot's interior after every op: stepcheck
// proves *per-op* equivalence, which is strictly stronger than
// final-state equivalence (a reordered exchange/axpy pair can converge
// again by the last op, and the checker still — correctly — rejects it).
// The bridge properties, over every scheme x step count and the seeded
// mutations:
//
//   checker Ok             => lockstep runs bit-equal after every op
//   predicts ValueMismatch => the runs concretely diverge at some op
//                             (and the mutant reads nothing undefined)
//   predicts ReadBeforeWrite => the mutant concretely reads an undefined
//                             cell, at the predicted op
//   OverDeepHalo advisory  => still bit-equal after every op (deepening
//                             is semantically free, just priced)

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

using core::StepFuse;
using core::StepHaloPlan;
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

/// One concrete slot field over [-depth, kCells + depth) with per-cell
/// definedness.
struct Field {
  std::vector<double> val;
  std::vector<char> def;
};

struct OracleState {
  std::vector<Field> slots;
  int depth = 0;
  bool undefinedRead = false;
  int undefinedAtOp = -1;
};

/// Storage a run needs: every op's write band plus the stencil reach of
/// the deepest RHS evaluation.
int storageDepth(const StepProgram& prog, const std::vector<int>& width) {
  int d = kGhost;
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    const int w = width[i];
    const int reach =
        prog.ops[i].kind == StepOpKind::RhsEval ? w + kGhost : w;
    d = std::max(d, reach);
  }
  return d;
}

OracleState initState(const StepProgram& prog, int depth) {
  OracleState st;
  st.depth = depth;
  const int total = kCells + 2 * depth;
  st.slots.resize(static_cast<std::size_t>(prog.nSlots));
  for (int s = 0; s < prog.nSlots; ++s) {
    Field& f = st.slots[static_cast<std::size_t>(s)];
    f.val.assign(static_cast<std::size_t>(total), 0.0);
    f.def.assign(static_cast<std::size_t>(total), 0);
  }
  Field& u = st.slots[0];
  for (int i = -depth; i < kCells + depth; ++i) {
    const std::size_t k = static_cast<std::size_t>(i + depth);
    u.val[k] = (i >= 0 && i < kCells) ? interiorValue(i) : staleValue(i);
    u.def[k] = 1;
  }
  return st;
}

/// Execute op `opIdx` of `prog` cell by cell at ghost width `w` (an
/// exchange of width 0 — a dropped exchange — moves nothing).
void applyOp(OracleState& st, const StepProgram& prog, std::size_t opIdx,
             int w) {
  if (st.undefinedRead) {
    return; // like the checker, stop at the first bad read
  }
  const StepOp& op = prog.ops[opIdx];
  const int D = st.depth;
  const auto at = [D](int i) { return static_cast<std::size_t>(i + D); };
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
    for (int L = 1; L <= w; ++L) {
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
    std::vector<double> out(static_cast<std::size_t>(kCells + 2 * w));
    for (int i = -w; i < kCells + w; ++i) {
      double acc = 0.0;
      for (int d = -kGhost; d <= kGhost; ++d) {
        acc += stencilWeight(d) * read(src, i + d);
      }
      out[static_cast<std::size_t>(i + w)] = acc;
    }
    for (int i = -w; i < kCells + w; ++i) {
      dst.val[at(i)] = out[static_cast<std::size_t>(i + w)];
      dst.def[at(i)] = 1;
    }
    break;
  }
  case StepOpKind::CopySlot:
    for (int i = -w; i < kCells + w; ++i) {
      dst.val[at(i)] = read(src, i);
      dst.def[at(i)] = 1; // overwrites: old dst is not consumed
    }
    break;
  case StepOpKind::AxpySlot:
    for (int i = -w; i < kCells + w; ++i) {
      dst.val[at(i)] = read(dst, i) + op.scale * read(src, i);
    }
    break;
  case StepOpKind::ScaleSlot:
    for (int i = -w; i < kCells + w; ++i) {
      dst.val[at(i)] = op.scale * read(dst, i);
    }
    break;
  }
}

/// Bitwise comparison of every slot's interior cells defined in both
/// states (the planned run may define more ghost layers; a mutated run
/// may define slots in a different order).
bool interiorsEqual(const OracleState& a, const OracleState& b) {
  for (std::size_t s = 0; s < a.slots.size(); ++s) {
    for (int i = 0; i < kCells; ++i) {
      const std::size_t ka = static_cast<std::size_t>(i + a.depth);
      const std::size_t kb = static_cast<std::size_t>(i + b.depth);
      if (a.slots[s].def[ka] && b.slots[s].def[kb] &&
          a.slots[s].val[ka] != b.slots[s].val[kb]) {
        return false;
      }
    }
  }
  return true;
}

std::vector<int> eagerWidths(const StepProgram& prog) {
  return core::planStepHalos(prog).width;
}

/// Run the mutant and the eager reference in lockstep — the concrete
/// mirror of the checker's per-op comparison.
struct OracleVerdict {
  int firstDivergeOp = -1; ///< first op after which interiors differ
  bool undefinedRead = false;
  int undefinedAtOp = -1;
  [[nodiscard]] bool diverged() const { return firstDivergeOp >= 0; }
};

OracleVerdict runLockstep(const StepProgram& prog,
                          const std::vector<int>& width,
                          const StepProgram& ref) {
  const std::vector<int> refWidth = eagerWidths(ref);
  OracleState run = initState(prog, storageDepth(prog, width));
  OracleState eager = initState(ref, storageDepth(ref, refWidth));
  OracleVerdict v;
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    applyOp(run, prog, i, width[i]);
    if (run.undefinedRead) {
      v.undefinedRead = true;
      v.undefinedAtOp = run.undefinedAtOp;
      return v;
    }
    applyOp(eager, ref, i, refWidth[i]);
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
      const StepHaloPlan plan = core::planStepHalos(prog);
      ASSERT_TRUE(checkStepProgram(prog, StepFuse::Fused, plan).ok())
          << tag(scheme, steps);
      const OracleVerdict v = runLockstep(prog, plan.width, prog);
      EXPECT_FALSE(v.undefinedRead) << tag(scheme, steps);
      EXPECT_FALSE(v.diverged())
          << tag(scheme, steps) << ": checker passed a plan the "
          << "concrete oracle refutes at op " << v.firstDivergeOp;
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
  for (const Scheme scheme : solvers::kSchemes) {
    for (const int steps : {1, 3}) {
      const StepProgram prog =
          solvers::buildStepProgram(scheme, /*dt=*/1.0, steps);
      for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const StepMutation muts[] = {
            mutate::dropStepExchange(prog, seed),
            mutate::shallowStepHalo(prog, seed),
            mutate::reorderStepOps(prog, seed),
            mutate::skewStepCoeff(prog, seed),
        };
        for (const StepMutation& m : muts) {
          if (!m.valid) {
            continue;
          }
          const std::string where = tag(scheme, steps) + ", seed " +
                                    std::to_string(seed) + ": " + m.what;
          const StepProgram& ref = m.useReference ? m.reference : m.prog;
          const OracleVerdict v = runLockstep(m.prog, m.plan.width, ref);
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
}

TEST(StepCheckProps, OverDeepHalosAreConcretelyHarmless) {
  for (const Scheme scheme : solvers::kSchemes) {
    const StepProgram prog = solvers::buildStepProgram(scheme, 1e-3);
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const StepMutation m = mutate::deepenStepHalo(prog, seed);
      if (!m.valid) {
        continue;
      }
      const OracleVerdict v = runLockstep(m.prog, m.plan.width, m.prog);
      EXPECT_FALSE(v.undefinedRead) << m.what;
      EXPECT_FALSE(v.diverged())
          << tag(scheme, 1) << ": " << m.what
          << ": a deepened halo must not change the answer";
    }
  }
}

} // namespace
} // namespace fluxdiv::analysis
