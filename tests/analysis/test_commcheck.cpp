// Tests of the exchange-plan verifier (analysis/commcheck). Three layers,
// mirroring test_graphcheck: every real Copier plan the suite's layouts
// produce must verify exact and matched; hand-edited plans exercise each
// diagnostic kind in isolation with its labeled two-endpoint witness; and
// the seeded plan miscompilations of analysis/mutate must each be
// rejected with their predicted witness labels. The suite layouts include
// the shared level matrix of shapes x ghost depths x domain
// periodicities (level_matrix.hpp).

#include "analysis/commcheck.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/mutate.hpp"
#include "grid/box.hpp"
#include "grid/copier.hpp"
#include "grid/layout.hpp"
#include "level_matrix.hpp"

namespace fluxdiv::analysis {
namespace {

using grid::Copier;
using grid::DisjointBoxLayout;
using grid::IntVect;
using grid::ProblemDomain;

using test::levelMatrix;
using test::NamedLayout;

std::vector<NamedLayout> suiteLayouts() {
  std::vector<NamedLayout> out = {
      {"periodic 3^3@8 g2",
       DisjointBoxLayout(ProblemDomain(grid::Box::cube(24)), 8), 2},
      {"single box self-wrap g2",
       DisjointBoxLayout(ProblemDomain(grid::Box::cube(8)), 8), 2},
      {"max ghost 12^3/4 g4",
       DisjointBoxLayout(ProblemDomain(grid::Box::cube(12)), 4), 4},
      {"anisotropic 16x8x8/(8,8,4) g2",
       DisjointBoxLayout(ProblemDomain(grid::Box(
                             IntVect::zero(), IntVect{15, 7, 7})),
                         IntVect{8, 8, 4}),
       2},
      {"walls 2^3@8 g2",
       DisjointBoxLayout(
           ProblemDomain(grid::Box::cube(16), /*periodicAll=*/false), 8),
       2},
      {"mixed 2^3@8 g2",
       DisjointBoxLayout(ProblemDomain(grid::Box::cube(16),
                                       std::array<bool, 3>{true, false,
                                                           true}),
                         8),
       2},
  };
  for (NamedLayout& nl : levelMatrix()) {
    out.push_back(std::move(nl));
  }
  return out;
}

CommPlanModel modelFor(const NamedLayout& nl) {
  const Copier copier(nl.dbl, nl.nghost);
  return buildCommPlanModel(nl.dbl, copier, nl.name);
}

bool reported(const CommCheckReport& rep, CommDiagKind kind,
              const std::string& opA = {}, const std::string& opB = {}) {
  for (const CommDiagnostic& d : rep.diagnostics) {
    if (d.kind == kind && (opA.empty() || d.opA == opA) &&
        (opB.empty() || d.opB == opB)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Every real plan proves clean.
// ---------------------------------------------------------------------------

TEST(CommCheckClean, AllSuitePlansVerifyUnderAllPartitions) {
  for (const NamedLayout& nl : suiteLayouts()) {
    const CommPlanModel model = modelFor(nl);
    const CommCheckReport rep = checkCommPlan(model);
    for (const CommDiagnostic& d : rep.diagnostics) {
      ADD_FAILURE() << nl.name << ": " << d.message();
    }
  }
}

// ---------------------------------------------------------------------------
// Hand-edited plans: each diagnostic kind with its labeled witness.
// ---------------------------------------------------------------------------

TEST(CommCheckDiagnostics, DroppedOpIsGhostGapAndUnmatchedRecv) {
  CommPlanModel model = modelFor(suiteLayouts()[0]);
  const CommOp dropped = model.ops.front();
  model.ops.erase(model.ops.begin());
  const CommCheckReport rep = checkCommPlan(model);
  EXPECT_FALSE(rep.ok());
  const std::string sendLabel = derivedSendLabel(
      dropped.srcBox, dropped.destBox, dropped.sector);
  EXPECT_TRUE(reported(rep, CommDiagKind::GhostGap,
                       "box" + std::to_string(dropped.destBox) +
                           " ghost halo",
                       sendLabel));
  EXPECT_TRUE(reported(rep, CommDiagKind::UnmatchedRecv, {}, sendLabel));
}

TEST(CommCheckDiagnostics, DuplicatedOpIsDoubleWrite) {
  CommPlanModel model = modelFor(suiteLayouts()[0]);
  model.ops.push_back(model.ops.front());
  const CommCheckReport rep = checkCommPlan(model);
  EXPECT_TRUE(reported(rep, CommDiagKind::DoubleWrite,
                       model.ops.front().label,
                       model.ops.front().label));
}

TEST(CommCheckDiagnostics, RegionIntoInteriorIsStrayWrite) {
  CommPlanModel model = modelFor(suiteLayouts()[0]);
  // Retarget op 0's writes at the interior of its destination box: cells
  // the exchange does not own.
  CommOp& op = model.ops.front();
  op.destRegion = model.layout.box(op.destBox);
  const CommCheckReport rep = checkCommPlan(model);
  EXPECT_TRUE(reported(rep, CommDiagKind::StrayWrite, op.label));
}

TEST(CommCheckDiagnostics, ShiftOffSourceIsSourceInvalid) {
  CommPlanModel model = modelFor(suiteLayouts()[0]);
  CommOp& op = model.ops.front();
  // A wildly wrong shift pushes the read region outside the source box's
  // valid cells entirely.
  op.srcShift += IntVect{1000, 0, 0};
  const CommCheckReport rep = checkCommPlan(model);
  EXPECT_TRUE(reported(rep, CommDiagKind::SourceInvalid, op.label));
}

TEST(CommCheckDiagnostics, RepointedSendIsUnmatched) {
  CommPlanModel model = modelFor(suiteLayouts()[0]);
  CommOp& op = model.ops.front();
  op.srcBox = (op.srcBox + 1) % model.layout.size();
  const CommCheckReport rep = checkCommPlan(model);
  EXPECT_TRUE(reported(rep, CommDiagKind::UnmatchedSend, op.label));
  EXPECT_TRUE(reported(rep, CommDiagKind::UnmatchedRecv));
}

TEST(CommCheckDiagnostics, ShrunkRegionIsExtentMismatch) {
  CommPlanModel model = modelFor(suiteLayouts()[0]);
  // Find an op whose region has extent > 1 along a sector axis and shave
  // its outermost layer, so the endpoints disagree on byte extent.
  for (CommOp& op : model.ops) {
    for (int d = 0; d < grid::SpaceDim; ++d) {
      if (op.sector[d] != 0 &&
          op.destRegion.hi(d) > op.destRegion.lo(d)) {
        IntVect step = IntVect::zero();
        step[d] = 1;
        op.destRegion = op.sector[d] < 0
                            ? grid::Box(op.destRegion.lo() + step,
                                        op.destRegion.hi())
                            : grid::Box(op.destRegion.lo(),
                                        op.destRegion.hi() - step);
        const CommCheckReport rep = checkCommPlan(model);
        EXPECT_TRUE(reported(rep, CommDiagKind::ExtentMismatch, op.label));
        EXPECT_TRUE(reported(rep, CommDiagKind::GhostGap));
        return;
      }
    }
  }
  FAIL() << "no shrinkable op in the plan";
}

TEST(CommCheckDiagnostics, MessageFormatNamesBothEndpointsAndPlan) {
  CommPlanModel model = modelFor(suiteLayouts()[0]);
  const CommOp dropped = model.ops.front();
  model.ops.erase(model.ops.begin());
  const CommCheckReport rep = checkCommPlan(model);
  ASSERT_FALSE(rep.ok());
  bool sawGap = false;
  for (const CommDiagnostic& d : rep.diagnostics) {
    if (d.kind != CommDiagKind::GhostGap) {
      continue;
    }
    sawGap = true;
    const std::string msg = d.message();
    EXPECT_NE(msg.find("ghost-gap"), std::string::npos);
    EXPECT_NE(msg.find(model.name), std::string::npos);
    EXPECT_NE(msg.find(d.opA), std::string::npos);
    EXPECT_NE(msg.find(d.opB), std::string::npos);
  }
  EXPECT_TRUE(sawGap);
}

// ---------------------------------------------------------------------------
// Seeded mutations: every miscompilation rejected with its predicted
// witness.
// ---------------------------------------------------------------------------

using MutatorFn = mutate::CommMutation (*)(const CommPlanModel&,
                                           std::uint64_t);

/// Returns the number of seeds whose mutation had a candidate.
int expectCaught(const CommPlanModel& base, MutatorFn fn,
                 const char* mutator) {
  int executed = 0;
  for (std::uint64_t seed = 0; seed < 7; ++seed) {
    const mutate::CommMutation mut = fn(base, seed);
    if (mut.expect == CommDiagKind::Ok) {
      continue; // no candidate in this plan
    }
    ++executed;
    const CommCheckReport rep = checkCommPlan(mut.model);
    EXPECT_TRUE(reported(rep, mut.expect, mut.witnessA, mut.witnessB))
        << mutator << " seed " << seed << " (" << mut.what
        << "): expected " << commDiagKindName(mut.expect) << " naming '"
        << mut.witnessA << "' vs '" << mut.witnessB << "', got "
        << rep.diagnostics.size() << " diagnostic(s)";
    if (mut.expectAlso != CommDiagKind::Ok) {
      EXPECT_TRUE(reported(rep, mut.expectAlso))
          << mutator << " seed " << seed << " (" << mut.what
          << "): missing companion "
          << commDiagKindName(mut.expectAlso);
    }
  }
  return executed;
}

TEST(CommCheckMutations, AllMutatorsCaughtOnAllSuiteLayouts) {
  int matrixExecuted = 0;
  const std::vector<NamedLayout> layouts = suiteLayouts();
  const std::size_t matrixBegin = layouts.size() - levelMatrix().size();
  for (std::size_t i = 0; i < layouts.size(); ++i) {
    const CommPlanModel base = modelFor(layouts[i]);
    const int executed =
        expectCaught(base, &mutate::dropCommOp, "dropCommOp") +
        expectCaught(base, &mutate::shrinkCommRegion, "shrinkCommRegion") +
        expectCaught(base, &mutate::skewCommSource, "skewCommSource") +
        expectCaught(base, &mutate::unmatchCommSend, "unmatchCommSend");
    if (i >= matrixBegin) {
      matrixExecuted += executed;
    }
  }
  // Every matrix plan offers a candidate for every class at every seed,
  // except that a one-layer halo has no region to shrink: 4 shapes x 3
  // domains x 7 seeds x (4 classes at ghost 2 and 4, 3 at ghost 1).
  EXPECT_EQ(matrixExecuted, 4 * 3 * 7 * (4 + 4 + 3));
}

TEST(CommCheckMutations, UnmutatedBaselineStaysClean) {
  // Guard the guard: the mutation harness only proves something if the
  // unmutated plan is accepted.
  for (const NamedLayout& nl : suiteLayouts()) {
    const CommPlanModel base = modelFor(nl);
    EXPECT_TRUE(checkCommPlan(base).ok()) << nl.name;
  }
}

} // namespace
} // namespace fluxdiv::analysis
