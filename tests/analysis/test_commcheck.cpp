// Tests of the exchange-plan verifier (analysis/commcheck). Three layers,
// mirroring test_graphcheck: every real Copier plan the suite's layouts
// produce must verify exact/matched/deadlock-free under rank partitions
// {1,2,4,8} with traffic agreeing EXACTLY with distsim's alpha-beta
// inputs; hand-edited plans exercise each diagnostic kind in isolation
// with its labeled two-endpoint witness; and the seeded plan
// miscompilations of analysis/mutate must each be rejected with their
// predicted witness labels. The suite layouts include a matrix of level
// shapes x ghost depths x domain periodicities.

#include "analysis/commcheck.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/mutate.hpp"
#include "distsim/comm_model.hpp"
#include "distsim/rank_layout.hpp"
#include "grid/box.hpp"
#include "grid/copier.hpp"
#include "grid/layout.hpp"

namespace fluxdiv::analysis {
namespace {

using grid::Copier;
using grid::DisjointBoxLayout;
using grid::IntVect;
using grid::ProblemDomain;

/// The layout shapes the repo's tests and benches exchange over.
struct NamedLayout {
  std::string name;
  DisjointBoxLayout dbl;
  int nghost;
  int maxRanks = 8; ///< largest rank partition to verify and mutate
};

/// Near-cubic per-axis box counts whose product is >= nBoxes.
IntVect factorBoxes(int nBoxes) {
  IntVect counts = IntVect::unit(1);
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

/// A matrix of level shapes: shared-memory levels (8 x 16^3, 27 x 8^3)
/// and rank-partitioned ones (4 ranks over 64 x 8^3, 8 ranks over
/// 16 x 8^3), at ghost depths 1, 2 and 4, each over periodic, walled and
/// mixed-periodicity domains.
std::vector<NamedLayout> levelMatrix() {
  struct Shape {
    int maxRanks;
    int nBoxes;
    int boxSize;
  };
  std::vector<NamedLayout> out;
  for (const Shape& sh : {Shape{8, 8, 16}, Shape{8, 27, 8}, Shape{4, 64, 8},
                          Shape{8, 16, 8}}) {
    const grid::Box domBox(IntVect::zero(),
                           factorBoxes(sh.nBoxes) * sh.boxSize -
                               IntVect::unit(1));
    for (const int ghost : {1, 2, 4}) {
      const std::string tag = std::to_string(sh.nBoxes) + "@" +
                              std::to_string(sh.boxSize) + " g" +
                              std::to_string(ghost);
      out.push_back({"periodic " + tag,
                     DisjointBoxLayout(ProblemDomain(domBox), sh.boxSize),
                     ghost, sh.maxRanks});
      out.push_back(
          {"walls " + tag,
           DisjointBoxLayout(ProblemDomain(domBox, /*periodicAll=*/false),
                             sh.boxSize),
           ghost, sh.maxRanks});
      out.push_back(
          {"mixed " + tag,
           DisjointBoxLayout(
               ProblemDomain(domBox, std::array<bool, 3>{true, false, true}),
               sh.boxSize),
           ghost, sh.maxRanks});
    }
  }
  return out;
}

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

CommPlanModel modelFor(const NamedLayout& nl, int ncomp = 2) {
  const Copier copier(nl.dbl, nl.nghost);
  return buildCommPlanModel(nl.dbl, copier, ncomp, nl.name);
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
// Every real plan proves clean under every standard partition, and the
// statically counted traffic agrees exactly with distsim.
// ---------------------------------------------------------------------------

TEST(CommCheckClean, AllSuitePlansVerifyUnderAllPartitions) {
  for (const NamedLayout& nl : suiteLayouts()) {
    const Copier copier(nl.dbl, nl.nghost);
    CommPlanModel model = buildCommPlanModel(nl.dbl, copier, 2, nl.name);
    for (const int nranks : {1, 2, 4, 8}) {
      if (static_cast<std::size_t>(nranks) > nl.dbl.size() ||
          nranks > nl.maxRanks) {
        break;
      }
      const distsim::RankDecomposition ranks(nl.dbl, nranks);
      applyRankPartition(model, ranks);
      const CommCheckReport rep = checkCommPlan(model);
      for (const CommDiagnostic& d : rep.diagnostics) {
        ADD_FAILURE() << nl.name << " @ " << nranks
                      << " ranks: " << d.message();
      }
      EXPECT_EQ(rep.opCount, model.ops.size());
      const std::vector<std::string> mismatches = crossValidateCommCost(
          rep, distsim::analyzeExchange(ranks, copier, 2));
      for (const std::string& m : mismatches) {
        ADD_FAILURE() << nl.name << " @ " << nranks << " ranks: " << m;
      }
    }
  }
}

TEST(CommCheckClean, SchedulableEvenAtCapacityOne) {
  // Plan order gives every channel identical send and recv order, so the
  // proof must go through even with a single in-flight message per
  // channel.
  CommPlanModel model = modelFor(suiteLayouts()[0]);
  applyRankPartition(model, 4);
  model.queueCapacity = 1;
  const CommCheckReport rep = checkCommPlan(model);
  EXPECT_TRUE(rep.ok());
  EXPECT_GT(rep.crossRankOps, 0u);
}

TEST(CommCheckClean, TrafficCountsMatchKnownGeometry) {
  // 4^3 boxes of 8^3 on 64 ranks: every box alone on its rank, so every
  // one of its 26 incoming sector ops is a message.
  const DisjointBoxLayout dbl(ProblemDomain(grid::Box::cube(32)), 8);
  const Copier copier(dbl, 2);
  CommPlanModel model = buildCommPlanModel(dbl, copier, 1);
  const distsim::RankDecomposition ranks(dbl, 64);
  applyRankPartition(model, ranks);
  const CommCheckReport rep = checkCommPlan(model);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.messagesTotal, 64 * 26);
  EXPECT_EQ(rep.maxMessagesPerRank, 26);
  // Per-pair traffic must sum back to the totals.
  std::int64_t msgs = 0;
  std::uint64_t bytes = 0;
  for (const RankPairTraffic& p : rep.pairs) {
    EXPECT_NE(p.srcRank, p.dstRank);
    msgs += p.messages;
    bytes += p.bytes;
  }
  EXPECT_EQ(msgs, rep.messagesTotal);
  EXPECT_EQ(bytes, rep.bytesTotal);
  EXPECT_TRUE(crossValidateCommCost(
                  rep, distsim::analyzeExchange(ranks, copier, 1))
                  .empty());
}

TEST(CommCheckClean, SingleRankHasNoCrossTraffic) {
  const CommPlanModel model = modelFor(suiteLayouts()[0]);
  const CommCheckReport rep = checkCommPlan(model);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.crossRankOps, 0u);
  EXPECT_EQ(rep.messagesTotal, 0);
  EXPECT_EQ(rep.bytesTotal, 0u);
  EXPECT_TRUE(rep.pairs.empty());
  EXPECT_GT(rep.onRankCells, 0);
  EXPECT_EQ(rep.offRankCells, 0);
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

TEST(CommCheckDiagnostics, ZeroCapacityChannelsDeadlock) {
  CommPlanModel model = modelFor(suiteLayouts()[0]);
  applyRankPartition(model, 2);
  model.queueCapacity = 0; // unbuffered: every cross-rank send blocks
  const CommCheckReport rep = checkCommPlan(model);
  ASSERT_TRUE(reported(rep, CommDiagKind::DeadlockCycle));
  for (const CommDiagnostic& d : rep.diagnostics) {
    if (d.kind == CommDiagKind::DeadlockCycle) {
      EXPECT_NE(d.detail.find("blocked"), std::string::npos)
          << d.message();
    }
  }
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
// Advisories.
// ---------------------------------------------------------------------------

TEST(CommCheckAdvisories, DuplicatedOpIsAlsoRedundant) {
  CommPlanModel model = modelFor(suiteLayouts()[0]);
  model.ops.push_back(model.ops.front());
  const CommCheckReport rep = checkCommPlan(model, /*findAdvisories=*/true);
  bool sawRedundant = false;
  for (const CommAdvisory& a : rep.advisories) {
    if (a.kind == CommAdviceKind::RedundantOp) {
      sawRedundant = true;
      EXPECT_FALSE(a.opLabel.empty());
      EXPECT_NE(a.message().find("redundant-op"), std::string::npos);
    }
  }
  EXPECT_TRUE(sawRedundant);
}

TEST(CommCheckAdvisories, SmallPeriodicLayoutHasMergeableMessages) {
  // 2 boxes per axis and periodic wrap: each box exchanges with the same
  // neighbor through multiple sectors, so the per-pair message count
  // exceeds the box-pair count.
  const DisjointBoxLayout dbl(ProblemDomain(grid::Box::cube(16)), 8);
  const Copier copier(dbl, 2);
  CommPlanModel model = buildCommPlanModel(dbl, copier, 2);
  applyRankPartition(model, 8);
  const CommCheckReport rep = checkCommPlan(model, /*findAdvisories=*/true);
  EXPECT_TRUE(rep.ok());
  bool sawMergeable = false;
  for (const CommAdvisory& a : rep.advisories) {
    if (a.kind == CommAdviceKind::MergeableMessages) {
      sawMergeable = true;
      EXPECT_GT(a.messages, a.merged);
      EXPECT_GE(a.rankA, 0);
      EXPECT_GE(a.rankB, 0);
    }
  }
  EXPECT_TRUE(sawMergeable);
  // Advisories never fire from the default (diagnostics-only) entry.
  EXPECT_TRUE(checkCommPlan(model).advisories.empty());
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
    const NamedLayout& nl = layouts[i];
    CommPlanModel base = modelFor(nl);
    applyRankPartition(base, std::min(static_cast<int>(nl.dbl.size()),
                                      nl.maxRanks));
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
