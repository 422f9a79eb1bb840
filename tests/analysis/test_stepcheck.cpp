// Whole-step semantic-equivalence prover (analysis/stepcheck): every
// shipped RK scheme is proven equivalent to eager semantics under every
// fuse mode's halo plan (S1-S3, multi-step captures included); every
// seeded step miscompilation of analysis/mutate is rejected with its
// independently predicted witness op; an artificially deepened plan is
// flagged over-deep with the proven-minimal width while that minimum - 1
// demonstrably breaks S1; dead stores and dead exchanges surface as
// advisories and as advisor cost notes; the S4 rebind signature is
// deterministic and sensitive to every key field; and the shared
// VerifyGate runtime verifies each shape once.

#include "analysis/stepcheck.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/costmodel.hpp"
#include "analysis/mutate.hpp"
#include "analysis/verifygate.hpp"
#include "core/stepprogram.hpp"
#include "grid/box.hpp"
#include "kernels/footprint.hpp"
#include "solvers/integrator.hpp"

namespace fluxdiv::analysis {
namespace {

using core::StepFuse;
using core::StepHaloPlan;
using core::StepProgram;
using grid::Box;
using grid::IntVect;
using mutate::StepMutation;
using solvers::Scheme;

constexpr StepFuse kCheckedFuses[] = {StepFuse::Fused, StepFuse::CommAvoid};

std::string tag(Scheme scheme, int steps, StepFuse fuse) {
  return std::string(solvers::schemeName(scheme)) + " x" +
         std::to_string(steps) + " / " + core::stepFuseName(fuse);
}

TEST(StepCheck, AllSchemesAllFusesAllStepsEquivalent) {
  // Witness boxes of 16^3 (the default) and 32^3; the box count only
  // prices advisories, of which there must be none.
  for (const int boxSize : {16, 32}) {
    StepCheckOptions opts;
    opts.boxSize = boxSize;
    opts.nBoxes = 8;
    for (const Scheme scheme : solvers::kSchemes) {
      for (const int steps : {1, 3}) {
        const StepProgram prog =
            solvers::buildStepProgram(scheme, /*dt=*/1e-3, steps);
        for (const StepFuse fuse : kCheckedFuses) {
          const StepCheckReport rep = checkStepProgram(prog, fuse, opts);
          EXPECT_TRUE(rep.ok()) << tag(scheme, steps, fuse) << " @ "
                                << boxSize << ": "
                                << (rep.ok()
                                        ? ""
                                        : rep.diagnostics[0].message());
          EXPECT_TRUE(rep.advisories.empty())
              << tag(scheme, steps, fuse)
              << ": shipped programs must plan tight, live halos";
          EXPECT_GT(rep.exprCount, 0u);
        }
      }
    }
  }
}

TEST(StepCheck, CommAvoidPlanIsDeepenedAndCheckedSound) {
  // Midpoint under CommAvoid: only the per-step u exchange survives,
  // deepened to kNumGhost x rhsEvals; the stage exchange is dropped and
  // its RHS recomputes on the widened halo. stepcheck proves exactly that
  // plan equivalent, which is the paper's comm-avoiding trade stated as a
  // theorem about the recorded program rather than a benchmark outcome.
  const StepProgram prog =
      solvers::buildStepProgram(Scheme::Midpoint, 1e-3);
  const StepHaloPlan plan =
      core::planStepHalos(prog, StepFuse::CommAvoid);
  EXPECT_EQ(plan.depth, kernels::kNumGhost * prog.rhsEvals);
  int dropped = 0;
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    if (plan.width[i] < 0) {
      ++dropped;
      EXPECT_EQ(prog.ops[i].kind, core::StepOpKind::Exchange);
    }
  }
  EXPECT_EQ(dropped, 1) << "one stage exchange avoided per step";
  EXPECT_TRUE(
      checkStepProgram(prog, StepFuse::CommAvoid, plan).ok());
}

/// The uniform mutation protocol of analysis/mutate: advisory mutations
/// need a clean report plus the predicted over-deep advisory; the rest
/// need the predicted diagnostic kind at the predicted witness op, first.
void expectCaught(const char* name, const StepMutation& m, StepFuse fuse,
                  const std::string& where, int boxSize) {
  if (!m.valid) {
    return;
  }
  StepCheckOptions opts;
  opts.boxSize = boxSize;
  if (m.useReference) {
    opts.reference = &m.reference;
  }
  const StepCheckReport rep =
      checkStepProgram(m.prog, fuse, m.plan, opts);
  if (m.expectAdvisory) {
    EXPECT_TRUE(rep.ok())
        << name << " [" << where << "] " << m.what
        << ": a deepened halo must stay equivalent, got "
        << (rep.ok() ? "" : rep.diagnostics[0].message());
    bool advised = false;
    for (const StepAdvisory& a : rep.advisories) {
      advised = advised || (a.kind == StepNoteKind::OverDeepHalo &&
                            a.op == m.witnessOp &&
                            a.minWidth == m.expectMinWidth);
    }
    EXPECT_TRUE(advised)
        << name << " [" << where << "] " << m.what
        << ": expected over-deep-halo advisory at op " << m.witnessOp
        << " with proven minimum " << m.expectMinWidth;
    return;
  }
  ASSERT_FALSE(rep.ok())
      << name << " [" << where << "] missed: " << m.what;
  EXPECT_EQ(rep.diagnostics[0].kind, m.expect)
      << name << " [" << where << "] " << m.what << ": got "
      << rep.diagnostics[0].message();
  EXPECT_EQ(rep.diagnostics[0].op, m.witnessOp)
      << name << " [" << where << "] " << m.what << ": got "
      << rep.diagnostics[0].message();
}

TEST(StepCheck, MutationsRejectedWithPredictedWitness) {
  // Every scheme x fuse mode: 1- and 3-step programs at seeds 0-4 on
  // 16^3 witness boxes, then the 3-step programs again at seeds 0-6 on
  // 32^3 witness boxes.
  struct Sweep {
    int steps;
    int boxSize;
    std::uint64_t seeds;
  };
  int executed = 0;
  for (const Sweep sw : {Sweep{1, 16, 5}, Sweep{3, 16, 5}, Sweep{3, 32, 7}}) {
    for (const Scheme scheme : solvers::kSchemes) {
      const StepProgram prog =
          solvers::buildStepProgram(scheme, 1e-3, sw.steps);
      for (const StepFuse fuse : kCheckedFuses) {
        for (std::uint64_t seed = 0; seed < sw.seeds; ++seed) {
          const std::string where = tag(scheme, sw.steps, fuse) + " @ " +
                                    std::to_string(sw.boxSize) +
                                    ", seed " + std::to_string(seed);
          const std::pair<const char*, StepMutation> muts[] = {
              {"drop", mutate::dropStepExchange(prog, fuse, seed)},
              {"shallow", mutate::shallowStepHalo(prog, fuse, seed)},
              {"reorder", mutate::reorderStepOps(prog, fuse, seed)},
              {"skew", mutate::skewStepCoeff(prog, fuse, seed)},
              {"deepen", mutate::deepenStepHalo(prog, fuse, seed)},
          };
          for (const auto& [name, mut] : muts) {
            expectCaught(name, mut, fuse, where, sw.boxSize);
            executed += mut.valid ? 1 : 0;
          }
        }
      }
    }
  }
  // 4 schemes x 2 fuse modes x 5 classes x (5 + 5 + 7) seeds, every one
  // a candidate.
  EXPECT_EQ(executed, 400 + 280);
}

TEST(StepCheck, EveryMutationClassFindsACandidateSomewhere) {
  // The suite above silently skips invalid mutations; guard that each
  // class actually fires on the shipped programs so a regressed factory
  // cannot hollow the suite out.
  int counts[5] = {0, 0, 0, 0, 0};
  for (const Scheme scheme : solvers::kSchemes) {
    const StepProgram prog = solvers::buildStepProgram(scheme, 1e-3);
    for (const StepFuse fuse : kCheckedFuses) {
      counts[0] += mutate::dropStepExchange(prog, fuse, 0).valid;
      counts[1] += mutate::shallowStepHalo(prog, fuse, 0).valid;
      counts[2] += mutate::reorderStepOps(prog, fuse, 0).valid;
      counts[3] += mutate::skewStepCoeff(prog, fuse, 0).valid;
      counts[4] += mutate::deepenStepHalo(prog, fuse, 0).valid;
    }
  }
  for (int c : counts) {
    EXPECT_GT(c, 0);
  }
}

TEST(StepCheck, OverDeepHaloAdvisedAndMinimumIsSharp) {
  // The S3 acceptance case end to end: deepen the comm-avoiding u
  // exchange by one layer. S1 must still hold, the advisory must price
  // the width back down to the planned minimum, and that minimum - 1
  // must provably break S1 - i.e. the advisory's minWidth is sharp, not
  // merely "some smaller width passed".
  const StepProgram prog =
      solvers::buildStepProgram(Scheme::Midpoint, 1e-3);
  const StepHaloPlan plan =
      core::planStepHalos(prog, StepFuse::CommAvoid);
  int deepOp = -1;
  for (std::size_t i = 0; i < prog.ops.size(); ++i) {
    if (prog.ops[i].kind == core::StepOpKind::Exchange &&
        plan.width[i] > 0) {
      deepOp = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(deepOp, 0);
  const int planned = plan.width[static_cast<std::size_t>(deepOp)];

  StepHaloPlan deepened = plan;
  deepened.width[static_cast<std::size_t>(deepOp)] = planned + 1;
  deepened.depth = std::max(deepened.depth, planned + 1);
  const StepCheckReport rep =
      checkStepProgram(prog, StepFuse::CommAvoid, deepened);
  ASSERT_TRUE(rep.ok()) << rep.diagnostics[0].message();
  ASSERT_EQ(rep.advisories.size(), 1u);
  EXPECT_EQ(rep.advisories[0].kind, StepNoteKind::OverDeepHalo);
  EXPECT_EQ(rep.advisories[0].op, deepOp);
  EXPECT_EQ(rep.advisories[0].width, planned + 1);
  EXPECT_EQ(rep.advisories[0].minWidth, planned);
  EXPECT_GT(rep.advisories[0].recomputeCells, 0);

  StepHaloPlan shaved = plan;
  shaved.width[static_cast<std::size_t>(deepOp)] = planned - 1;
  EXPECT_FALSE(
      checkStepProgram(prog, StepFuse::CommAvoid, shaved).ok())
      << "minWidth - 1 must break S1, else the minimum is not minimal";
}

StepProgram programWithDeadOps() {
  StepProgram p;
  p.nSlots = 3;
  p.rhsEvals = 1;
  p.nSteps = 1;
  p.slotNames = {"u", "k", "scratch"};
  p.exchange(0);
  p.rhs(0, 1);
  p.axpy(0, 1, 0.5);
  p.copy(0, 2); // scratch is never read: dead store
  p.exchange(0); // trailing ghost fill nothing consumes: dead exchange
  return p;
}

TEST(StepCheck, DeadStoreAndDeadExchangeAdvised) {
  const StepProgram prog = programWithDeadOps();
  const StepCheckReport rep =
      checkStepProgram(prog, StepFuse::Fused);
  ASSERT_TRUE(rep.ok()) << rep.diagnostics[0].message();
  bool deadStore = false;
  bool deadExchange = false;
  for (const StepAdvisory& a : rep.advisories) {
    deadStore = deadStore ||
                (a.kind == StepNoteKind::DeadStore && a.op == 3);
    deadExchange = deadExchange ||
                   (a.kind == StepNoteKind::DeadExchange && a.op == 4);
  }
  EXPECT_TRUE(deadStore) << "copy into never-read scratch at op 3";
  EXPECT_TRUE(deadExchange) << "trailing exchange at op 4";

  // And the advisor-facing lift: both become DeadStore cost notes (the
  // cost model folds the two liveness kinds into one note kind).
  const std::vector<CostNote> notes = stepCheckNotes(rep, prog);
  int liveness = 0;
  for (const CostNote& n : notes) {
    liveness += n.kind == CostNoteKind::DeadStore;
  }
  EXPECT_EQ(liveness, 2);
}

TEST(StepCheck, OverDeepNotePricedForAdvisor) {
  const StepProgram prog =
      solvers::buildStepProgram(Scheme::Midpoint, 1e-3);
  StepHaloPlan plan = core::planStepHalos(prog, StepFuse::CommAvoid);
  plan.width[0] += 1;
  plan.depth = std::max(plan.depth, plan.width[0]);
  const StepCheckReport rep =
      checkStepProgram(prog, StepFuse::CommAvoid, plan);
  const std::vector<CostNote> notes = stepCheckNotes(rep, prog);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].kind, CostNoteKind::OverDeepHalo);
  EXPECT_NE(notes[0].message().find("over-deep"), std::string::npos);
}

StepShapeKey baseShapeKey() {
  StepShapeKey key;
  key.domainBox = Box(IntVect::zero(), IntVect{31, 31, 31});
  key.periodic = {true, true, true};
  key.boxSize = IntVect{16, 16, 16};
  key.nGhost = 2;
  key.nComp = 1;
  key.invDx = 32.0;
  key.dissipation = 0.0;
  key.hasBoundary = false;
  return key;
}

TEST(StepSignature, DeterministicAndSensitiveToEveryField) {
  const StepProgram prog =
      solvers::buildStepProgram(Scheme::SSPRK3, 1e-3);
  const StepShapeKey key = baseShapeKey();
  const std::uint64_t sig =
      stepSignature(prog, StepFuse::Fused, key);
  EXPECT_EQ(sig, stepSignature(prog, StepFuse::Fused, key));
  EXPECT_NE(sig, stepSignature(prog, StepFuse::CommAvoid, key));
  EXPECT_NE(sig, stepSignature(
                     solvers::buildStepProgram(Scheme::SSPRK3, 2e-3),
                     StepFuse::Fused, key));
  EXPECT_NE(sig, stepSignature(
                     solvers::buildStepProgram(Scheme::RK4, 1e-3),
                     StepFuse::Fused, key));

  StepShapeKey k = key;
  k.domainBox = Box(IntVect::zero(), IntVect{63, 31, 31});
  EXPECT_NE(sig, stepSignature(prog, StepFuse::Fused, k));
  k = key;
  k.periodic[1] = false;
  EXPECT_NE(sig, stepSignature(prog, StepFuse::Fused, k));
  k = key;
  k.boxSize = IntVect{8, 16, 16};
  EXPECT_NE(sig, stepSignature(prog, StepFuse::Fused, k));
  k = key;
  k.nGhost = 3;
  EXPECT_NE(sig, stepSignature(prog, StepFuse::Fused, k));
  k = key;
  k.nComp = 2;
  EXPECT_NE(sig, stepSignature(prog, StepFuse::Fused, k));
  k = key;
  k.invDx = 64.0;
  EXPECT_NE(sig, stepSignature(prog, StepFuse::Fused, k));
  k = key;
  k.dissipation = 0.01;
  EXPECT_NE(sig, stepSignature(prog, StepFuse::Fused, k));
  k = key;
  k.hasBoundary = true;
  EXPECT_NE(sig, stepSignature(prog, StepFuse::Fused, k));

  const std::string hex = stepSignatureHex(sig);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex, stepSignatureHex(sig));
}

TEST(VerifyGate, EnvironmentDisablesAndMemoizes) {
  // The gate has no environment override (FLUXDIV_VERIFY is a build
  // option); what it does at run time is the once-per-shape memo.
  VerifyGate gate;
  EXPECT_EQ(gate.verifiedShapes(), 0u);
  EXPECT_TRUE(gate.shouldVerify("a"));
  EXPECT_FALSE(gate.shouldVerify("a")) << "each shape verifies once";
  EXPECT_TRUE(gate.shouldVerify("b"));
  EXPECT_EQ(gate.verifiedShapes(), 2u);
}

TEST(VerifyGate, FailureMessageFormat) {
  const std::string one = verifyFailureMessage("gate failed", {"d1"});
  EXPECT_NE(one.find("gate failed (1 diagnostic(s)):"),
            std::string::npos);
  EXPECT_NE(one.find("\n  d1"), std::string::npos);
  EXPECT_EQ(one.find("more"), std::string::npos);

  const std::string six = verifyFailureMessage(
      "gate failed", {"d1", "d2", "d3", "d4", "d5", "d6"});
  EXPECT_NE(six.find("(6 diagnostic(s)):"), std::string::npos);
  EXPECT_NE(six.find("\n  d4"), std::string::npos);
  EXPECT_EQ(six.find("d5"), std::string::npos)
      << "only the first four diagnostics are spelled out";
  EXPECT_NE(six.find("(+2 more)"), std::string::npos);
}

} // namespace
} // namespace fluxdiv::analysis
