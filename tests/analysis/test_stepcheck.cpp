// Whole-step program checker (analysis/stepcheck): every shipped RK
// scheme is proven live (S2, multi-step captures and wall-bounded
// programs included); every seeded step miscompilation of analysis/mutate
// is rejected as a ReadBeforeWrite at its independently predicted op;
// dead stores and dead exchanges surface as advisories and as advisor
// cost notes; the S4 rebind signature is deterministic and sensitive to
// every key field; and the shared VerifyGate runtime verifies each shape
// once and keeps failing a shape that failed.

#include "analysis/stepcheck.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
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

std::string tag(Scheme scheme, int steps, bool walls) {
  return std::string(solvers::schemeName(scheme)) + " x" +
         std::to_string(steps) + (walls ? " walls" : "");
}

TEST(StepCheck, ShippedProgramsLiveWithAndWithoutWalls) {
  // Every shipped program is live with no dead op. With walls, each
  // Exchange is followed by a BoundaryFill of the wall slabs; the RHS
  // reads both, so neither is a dead exchange.
  for (const bool walls : {false, true}) {
    for (const Scheme scheme : solvers::kSchemes) {
      for (const int steps : {1, 2, 3}) {
        const StepProgram prog =
            solvers::buildStepProgram(scheme, /*dt=*/1e-3, steps, walls);
        const StepCheckReport rep = checkStepProgram(prog);
        EXPECT_TRUE(rep.ok())
            << tag(scheme, steps, walls) << ": "
            << (rep.ok() ? "" : rep.diagnostics[0].message());
        EXPECT_TRUE(rep.advisories.empty())
            << tag(scheme, steps, walls) << ": "
            << (rep.advisories.empty() ? ""
                                       : rep.advisories[0].message());
      }
    }
  }
}

TEST(StepCheck, MutationsRejectedWithPredictedWitness) {
  // Every scheme at 1-3 steps, periodic and wall-bounded, seeds 0-11. A
  // factory draws its candidate by seed modulo the number of candidates
  // (at most 2 drops and 5 reorders per program, so every candidate is
  // drawn), and seeds repeat mutants: each distinct mutated program is
  // checked once, and the suite counts mutants, not seeds.
  using Ops = std::vector<core::StepOp>;
  const char* const names[] = {"drop", "reorder"};
  std::array<std::vector<Ops>, 2> distinct;
  for (const bool walls : {false, true}) {
    for (const Scheme scheme : solvers::kSchemes) {
      for (const int steps : {1, 2, 3}) {
        const StepProgram prog =
            solvers::buildStepProgram(scheme, 1e-3, steps, walls);
        for (std::uint64_t seed = 0; seed < 12; ++seed) {
          const std::string where =
              tag(scheme, steps, walls) + ", seed " + std::to_string(seed);
          const StepMutation muts[] = {
              mutate::dropStepExchange(prog, seed),
              mutate::reorderStepOps(prog, seed),
          };
          for (std::size_t c = 0; c < 2; ++c) {
            const StepMutation& mut = muts[c];
            if (!mut.valid ||
                std::ranges::find(distinct[c], mut.prog.ops) !=
                    distinct[c].end()) {
              continue;
            }
            distinct[c].push_back(mut.prog.ops);
            const StepCheckReport rep = checkStepProgram(mut.prog);
            ASSERT_FALSE(rep.ok())
                << names[c] << " [" << where << "] missed: " << mut.what;
            EXPECT_EQ(rep.diagnostics[0].op, mut.witnessOp)
                << names[c] << " [" << where << "] " << mut.what
                << ": got " << rep.diagnostics[0].message();
          }
        }
      }
    }
  }
  EXPECT_EQ(distinct[0].size(), 30u) << "distinct drop mutants";
  EXPECT_EQ(distinct[1].size(), 57u) << "distinct reorder mutants";
}

TEST(StepCheck, EveryMutationClassFindsACandidateSomewhere) {
  // The suite above silently skips invalid mutations; guard that each
  // class actually fires on the shipped programs so a regressed factory
  // cannot hollow the suite out.
  int counts[2] = {0, 0};
  for (const Scheme scheme : solvers::kSchemes) {
    const StepProgram prog = solvers::buildStepProgram(scheme, 1e-3);
    counts[0] += mutate::dropStepExchange(prog, 0).valid;
    counts[1] += mutate::reorderStepOps(prog, 0).valid;
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
  int runs = 0;
  const auto count = [&runs] { ++runs; };
  EXPECT_EQ(gate.verifiedShapes(), 0u);
  gate.verifyOnce("a", count);
  gate.verifyOnce("a", count);
  EXPECT_EQ(runs, 1) << "each shape verifies once";
  gate.verifyOnce("b", count);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(gate.verifiedShapes(), 2u);
}

TEST(VerifyGate, FailedShapeFailsOnEveryUse) {
  // A check that throws must not leave its shape marked proven: every
  // later use of the key throws the first failure again.
  VerifyGate gate;
  int runs = 0;
  const auto unsound = [&runs] {
    ++runs;
    throw std::logic_error("shape 'a' is unsound");
  };
  EXPECT_THROW(gate.verifyOnce("a", unsound), std::logic_error);
  for (int use = 0; use < 2; ++use) {
    try {
      gate.verifyOnce("a", [] {});
      ADD_FAILURE() << "use " << use << " of a failed shape passed the gate";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "shape 'a' is unsound");
    }
  }
  EXPECT_EQ(runs, 1);
  EXPECT_NO_THROW(gate.verifyOnce("b", [] {})) << "other shapes still pass";
}

TEST(VerifyGate, ReentrantUsePassesThrough) {
  // The kernel probe runs its variant through a fresh runner, which
  // re-enters the gate under the same key while the check runs.
  VerifyGate gate;
  int inner = 0;
  gate.verifyOnce("a", [&] { gate.verifyOnce("a", [&inner] { ++inner; }); });
  EXPECT_EQ(inner, 0);
  EXPECT_EQ(gate.verifiedShapes(), 1u);
}

TEST(VerifyGate, UseFromAnotherThreadWaitsForTheVerdict) {
  // While the first check of 'a' runs, a second thread uses 'a'. It must
  // wait for the verdict and rethrow the failure, not pass as proven. The
  // check starts that thread itself (so the key is already recorded) and
  // then blocks until the second use returns or 2 s pass: a use that
  // waits cannot return before the check ends, so with the fix the check
  // always times out and fails first; a use that does not wait returns at
  // once, passing.
  VerifyGate gate;
  std::thread other;
  std::promise<void> returned;
  std::future<void> otherReturned = returned.get_future();
  bool otherPassed = false;
  std::string otherFailure;
  const auto unsound = [&] {
    other = std::thread([&] {
      try {
        gate.verifyOnce("a", [] {});
        otherPassed = true;
      } catch (const std::logic_error& e) {
        otherFailure = e.what();
      }
      returned.set_value();
    });
    (void)otherReturned.wait_for(std::chrono::seconds(2));
    throw std::logic_error("shape 'a' is unsound");
  };
  EXPECT_THROW(gate.verifyOnce("a", unsound), std::logic_error);
  other.join();
  EXPECT_FALSE(otherPassed)
      << "a use from another thread passed while the check was running";
  EXPECT_EQ(otherFailure, "shape 'a' is unsound");
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
