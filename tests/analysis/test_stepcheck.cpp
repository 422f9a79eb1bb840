// Whole-step program checker (analysis/stepcheck): every shipped RK
// scheme is proven live (S2, multi-step captures included); every seeded
// step miscompilation of analysis/mutate is rejected against its
// unmutated program (S1) with its independently predicted witness op;
// dead stores and dead exchanges surface as advisories and as advisor
// cost notes; the S4 rebind signature is deterministic and sensitive to
// every key field; and the shared VerifyGate runtime verifies each shape
// once.

#include "analysis/stepcheck.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/costmodel.hpp"
#include "analysis/mutate.hpp"
#include "analysis/verifygate.hpp"
#include "core/stepprogram.hpp"
#include "grid/box.hpp"
#include "solvers/integrator.hpp"

namespace fluxdiv::analysis {
namespace {

using core::StepFuse;
using core::StepProgram;
using grid::Box;
using grid::IntVect;
using mutate::StepMutation;
using solvers::Scheme;

std::string tag(Scheme scheme, int steps) {
  return std::string(solvers::schemeName(scheme)) + " x" +
         std::to_string(steps);
}

TEST(StepCheck, AllSchemesAllFusesAllStepsEquivalent) {
  // Every shipped program is live (S2) with no dead op, on witness boxes
  // of 16^3 (the default) and 32^3. Run against itself as the S1
  // reference it must stay clean too: the control that the lockstep does
  // not flag equal programs, which the mutation suite below cannot show.
  for (const int boxSize : {16, 32}) {
    for (const Scheme scheme : solvers::kSchemes) {
      for (const int steps : {1, 3}) {
        const StepProgram prog =
            solvers::buildStepProgram(scheme, /*dt=*/1e-3, steps);
        StepCheckOptions opts;
        opts.boxSize = boxSize;
        const StepProgram* const refs[] = {nullptr, &prog};
        for (const StepProgram* ref : refs) {
          opts.reference = ref;
          const StepCheckReport rep = checkStepProgram(prog, opts);
          EXPECT_TRUE(rep.ok())
              << tag(scheme, steps) << " @ " << boxSize << ": "
              << (rep.ok() ? "" : rep.diagnostics[0].message());
          EXPECT_TRUE(rep.advisories.empty())
              << tag(scheme, steps)
              << ": shipped programs must carry no dead op";
          EXPECT_GT(rep.exprCount, 0u);
        }
      }
    }
  }
}

/// The uniform mutation protocol of analysis/mutate: the predicted
/// diagnostic kind at the predicted witness op, first.
void expectCaught(const char* name, const StepMutation& m,
                  const std::string& where, int boxSize) {
  if (!m.valid) {
    return;
  }
  StepCheckOptions opts;
  opts.boxSize = boxSize;
  if (m.useReference) {
    opts.reference = &m.reference;
  }
  const StepCheckReport rep = checkStepProgram(m.prog, opts);
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
  // Every scheme: 1- and 3-step programs at seeds 0-4 on 16^3 witness
  // boxes, then the 3-step programs again at seeds 0-6 on 32^3 witness
  // boxes. A factory picks its candidate by seed modulo the number of
  // candidates, so seeds repeat mutants (forward Euler has one exchange,
  // hence one drop mutant): each distinct mutated program is checked once
  // per sweep, and the suite counts mutants, not seeds.
  struct Sweep {
    int steps;
    int boxSize;
    std::uint64_t seeds;
  };
  using Ops = std::vector<core::StepOp>;
  const char* const names[] = {"drop", "reorder", "skew"};
  std::array<std::vector<Ops>, 3> distinct; // over every scheme and sweep
  for (const Sweep sw : {Sweep{1, 16, 5}, Sweep{3, 16, 5}, Sweep{3, 32, 7}}) {
    for (const Scheme scheme : solvers::kSchemes) {
      const StepProgram prog =
          solvers::buildStepProgram(scheme, 1e-3, sw.steps);
      std::array<std::vector<Ops>, 3> checked; // in this sweep
      for (std::uint64_t seed = 0; seed < sw.seeds; ++seed) {
        const std::string where = tag(scheme, sw.steps) + " @ " +
                                  std::to_string(sw.boxSize) + ", seed " +
                                  std::to_string(seed);
        const StepMutation muts[] = {
            mutate::dropStepExchange(prog, seed),
            mutate::reorderStepOps(prog, seed),
            mutate::skewStepCoeff(prog, seed),
        };
        for (std::size_t c = 0; c < 3; ++c) {
          const StepMutation& mut = muts[c];
          ASSERT_TRUE(mut.valid)
              << names[c] << " [" << where << "] found no candidate";
          if (std::ranges::find(checked[c], mut.prog.ops) !=
              checked[c].end()) {
            continue;
          }
          checked[c].push_back(mut.prog.ops);
          expectCaught(names[c], mut, where, sw.boxSize);
          if (std::ranges::find(distinct[c], mut.prog.ops) ==
              distinct[c].end()) {
            distinct[c].push_back(mut.prog.ops);
          }
        }
      }
    }
  }
  EXPECT_EQ(distinct[0].size(), 33u) << "distinct drop mutants";
  EXPECT_EQ(distinct[1].size(), 45u) << "distinct reorder mutants";
  EXPECT_EQ(distinct[2].size(), 36u) << "distinct skew mutants";
}

TEST(StepCheck, EveryMutationClassFindsACandidateSomewhere) {
  // The suite above silently skips invalid mutations; guard that each
  // class actually fires on the shipped programs so a regressed factory
  // cannot hollow the suite out.
  int counts[3] = {0, 0, 0};
  for (const Scheme scheme : solvers::kSchemes) {
    const StepProgram prog = solvers::buildStepProgram(scheme, 1e-3);
    counts[0] += mutate::dropStepExchange(prog, 0).valid;
    counts[1] += mutate::reorderStepOps(prog, 0).valid;
    counts[2] += mutate::skewStepCoeff(prog, 0).valid;
  }
  for (int c : counts) {
    EXPECT_GT(c, 0);
  }
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
  const StepCheckReport rep = checkStepProgram(prog);
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
  EXPECT_NE(sig, stepSignature(prog, StepFuse::Eager, key));
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
