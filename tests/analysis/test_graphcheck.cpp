// Tests of the task-graph race verifier (analysis/graphcheck). Three
// layers: hand-built miniature models exercise each diagnostic and
// over-synchronization reason in isolation; the real step graphs of one
// forward-Euler step (exchange, RHS evaluation, axpy — every policy x
// family, both fab pitches) must verify clean; and the seeded graph
// miscompilations of analysis/mutate must each be rejected with their
// predicted two-task witness. The adversarial-replay suite closes the
// loop on the dynamic side: every policy x family step stays
// bit-identical to the eager step under all four hostile orderings (with
// shadow-memory checking active when FLUXDIV_SHADOW_CHECK is compiled
// in). The real graphs are lowered on 2, 3 and 8 workers, and on a level
// of 27 small boxes.

#include "analysis/graphcheck.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/mutate.hpp"
#include "core/kernelshapes.hpp"
#include "core/stepgraph.hpp"
#include "core/variant.hpp"
#include "grid/box.hpp"
#include "grid/leveldata.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "solvers/integrator.hpp"

namespace fluxdiv::analysis {
namespace {

using core::LevelPolicy;
using core::VariantConfig;
using grid::Box;
using grid::DisjointBoxLayout;
using grid::IntVect;
using grid::LevelData;
using grid::Pitch;
using grid::ProblemDomain;

// ---------------------------------------------------------------------------
// Hand-built miniature models.
// ---------------------------------------------------------------------------

TaskAccess acc(FieldId field, std::size_t box, const Box& region,
               int comp0 = 0, int nComp = 1) {
  return {field, box, /*slot=*/0, comp0, nComp, region};
}

/// True if some diagnostic of `kind` names the (labelA, labelB) pair in
/// either order.
bool reported(const GraphCheckReport& rep, DiagnosticKind kind,
              const std::string& labelA, const std::string& labelB) {
  for (const Diagnostic& d : rep.diagnostics) {
    if (d.kind != kind) {
      continue;
    }
    if ((d.stageA == labelA && d.stageB == labelB) ||
        (d.stageA == labelB && d.stageB == labelA)) {
      return true;
    }
  }
  return false;
}

TEST(GraphCheck, EmptyAndSingleTaskModelsAreClean) {
  TaskGraphModel m;
  m.name = "empty";
  EXPECT_TRUE(checkTaskGraph(m).ok());
  const int t = m.addTask("lonely");
  m.tasks[static_cast<std::size_t>(t)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4)));
  const GraphCheckReport rep = checkTaskGraph(m);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.taskCount, 1);
  EXPECT_EQ(rep.criticalPath, 1);
}

TEST(GraphCheck, UnorderedOverlappingWritesAreReported) {
  TaskGraphModel m;
  m.name = "w/w";
  const int a = m.addTask("tile A");
  const int b = m.addTask("tile B");
  m.tasks[static_cast<std::size_t>(a)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4)));
  m.tasks[static_cast<std::size_t>(b)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4, IntVect(3, 0, 0))));
  const GraphCheckReport rep = checkTaskGraph(m);
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(reported(rep, DiagnosticKind::WriteOverlap, "tile A",
                       "tile B"));
}

TEST(GraphCheck, DiagnosticMessageNamesEverything) {
  // The rendered message is what the step-graph gate's exception carries:
  // it must name the kind, both tasks, and the violating region.
  TaskGraphModel m;
  m.name = "w/w";
  const int a = m.addTask("tile A");
  const int b = m.addTask("tile B");
  m.tasks[static_cast<std::size_t>(a)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4)));
  m.tasks[static_cast<std::size_t>(b)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4, IntVect(3, 0, 0))));
  const GraphCheckReport rep = checkTaskGraph(m);
  ASSERT_EQ(rep.diagnostics.size(), 1u);
  const std::string msg = rep.diagnostics[0].message();
  EXPECT_NE(msg.find("write-overlap"), std::string::npos) << msg;
  EXPECT_NE(msg.find("tile A"), std::string::npos) << msg;
  EXPECT_NE(msg.find("tile B"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(3,0,0)"), std::string::npos) << msg;
  EXPECT_EQ(Diagnostic{}.message(), "ok");
}

TEST(GraphCheck, EveryKindHasAName) {
  std::set<std::string> names;
  for (const auto k :
       {DiagnosticKind::Ok, DiagnosticKind::ReadUncovered,
        DiagnosticKind::WriteOverlap, DiagnosticKind::ReadWriteRace,
        DiagnosticKind::DependencyCycle}) {
    const std::string name = diagnosticKindName(k);
    EXPECT_GT(name.size(), 1u);
    EXPECT_NE(name, "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 5u) << "every kind has its own name";
}

TEST(GraphCheck, DisjointComponentsAndBoxesDoNotConflict) {
  TaskGraphModel m;
  m.name = "disjoint";
  const int a = m.addTask("box 0");
  const int b = m.addTask("box 1");   // other fab: same region, no overlap
  const int c = m.addTask("box 0 far"); // same fab, disjoint region
  m.tasks[static_cast<std::size_t>(a)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4)));
  m.tasks[static_cast<std::size_t>(b)].writes.push_back(
      acc(FieldId::Phi1, 1, Box::cube(4)));
  m.tasks[static_cast<std::size_t>(c)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4, IntVect(8, 8, 8))));
  EXPECT_TRUE(checkTaskGraph(m).ok());
}

TEST(GraphCheck, DisjointComponentRangesDoNotConflict) {
  TaskGraphModel m;
  m.name = "comps";
  const int a = m.addTask("c0");
  const int b = m.addTask("c1");
  m.tasks[static_cast<std::size_t>(a)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4), 0, 1));
  m.tasks[static_cast<std::size_t>(b)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4), 1, 2));
  EXPECT_TRUE(checkTaskGraph(m).ok());
}

TEST(GraphCheck, UnorderedReadWriteIsReportedAndEdgeSilencesIt) {
  for (const bool ordered : {false, true}) {
    TaskGraphModel m;
    m.name = ordered ? "r/w ordered" : "r/w race";
    const int w = m.addTask("writer");
    const int r = m.addTask("reader");
    m.tasks[static_cast<std::size_t>(w)].writes.push_back(
        acc(FieldId::Phi0, 0, Box::cube(4)));
    m.tasks[static_cast<std::size_t>(r)].reads.push_back(
        acc(FieldId::Phi0, 0, Box::cube(6)));
    if (ordered) {
      m.addEdge(w, r);
    }
    const GraphCheckReport rep = checkTaskGraph(m);
    if (ordered) {
      EXPECT_TRUE(rep.ok());
    } else {
      ASSERT_FALSE(rep.ok());
      EXPECT_TRUE(reported(rep, DiagnosticKind::ReadWriteRace, "writer",
                           "reader"));
    }
  }
}

TEST(GraphCheck, TransitiveOrderingCountsAsHappensBefore) {
  TaskGraphModel m;
  m.name = "transitive";
  const int a = m.addTask("a");
  const int mid = m.addTask("mid");
  const int b = m.addTask("b");
  m.tasks[static_cast<std::size_t>(a)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4)));
  m.tasks[static_cast<std::size_t>(b)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4)));
  m.addEdge(a, mid);
  m.addEdge(mid, b);
  EXPECT_TRUE(checkTaskGraph(m).ok());
}

TEST(GraphCheck, CycleIsReportedAsDiagnosticNotHang) {
  TaskGraphModel m;
  m.name = "cycle";
  const int a = m.addTask("ouroboros head");
  const int b = m.addTask("ouroboros tail");
  m.addEdge(a, b);
  m.addEdge(b, a);
  const GraphCheckReport rep = checkTaskGraph(m);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.diagnostics[0].kind, DiagnosticKind::DependencyCycle);
  EXPECT_TRUE(reported(rep, DiagnosticKind::DependencyCycle,
                       "ouroboros head", "ouroboros tail"));
}

TEST(GraphCheck, GhostReadMustBeCoveredByPrecedingExchangeWrites) {
  const Box valid = Box::cube(8);
  const Box grown = valid.grow(1);
  for (const bool shrunk : {false, true}) {
    TaskGraphModel m;
    m.name = shrunk ? "g3 shrunk" : "g3 covered";
    m.ghostsPreExchanged = false;
    m.validBoxes = {valid};
    const int op = m.addTask("exchange op 0");
    const int r = m.addTask("box 0");
    m.tasks[static_cast<std::size_t>(op)].exchangeOp = true;
    // One op filling the whole ghost ring (modeled as the grown box; the
    // valid interior is its own, untouched, storage in this toy model);
    // the shrunk variant under-fills the high-z layer.
    const Box fill =
        shrunk ? Box(grown.lo(), grown.hi() - IntVect::basis(2)) : grown;
    m.tasks[static_cast<std::size_t>(op)].writes.push_back(
        acc(FieldId::Phi0, 0, fill));
    m.tasks[static_cast<std::size_t>(r)].reads.push_back(
        acc(FieldId::Phi0, 0, grown));
    m.tasks[static_cast<std::size_t>(r)].writes.push_back(
        acc(FieldId::Phi1, 0, valid));
    m.addEdge(op, r);
    const GraphCheckReport rep = checkTaskGraph(m);
    if (shrunk) {
      ASSERT_FALSE(rep.ok());
      EXPECT_TRUE(reported(rep, DiagnosticKind::ReadUncovered, "box 0",
                           "exchange op 0"));
    } else {
      EXPECT_TRUE(rep.ok());
    }
  }
}

TEST(GraphCheck, OverSynchronizationReasonsAreClassified) {
  TaskGraphModel m;
  m.name = "oversync";
  const int a = m.addTask("a");
  const int mid = m.addTask("mid");
  const int b = m.addTask("b");
  m.tasks[static_cast<std::size_t>(a)].writes.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4)));
  m.tasks[static_cast<std::size_t>(b)].reads.push_back(
      acc(FieldId::Phi1, 0, Box::cube(4)));
  m.addEdge(a, b);
  m.addEdge(a, b);   // duplicate of the conflict-carrying edge
  m.addEdge(a, mid); // orders nothing: mid touches no memory
  m.addEdge(mid, b);
  const GraphCheckReport rep = checkTaskGraph(m, /*findRemovable=*/true);
  EXPECT_TRUE(rep.ok());
  bool sawDuplicate = false;
  bool sawImplied = false;
  bool sawNoConflict = false;
  for (const RemovableEdge& e : rep.removable) {
    if (e.reason.find("duplicate") != std::string::npos) {
      sawDuplicate = true;
    }
    if (e.reason.find("transitively implied") != std::string::npos) {
      sawImplied = true;
    }
    if (e.reason.find("no conflicting") != std::string::npos) {
      sawNoConflict = true;
    }
  }
  EXPECT_TRUE(sawDuplicate);
  // a -> b is both duplicated and shadowed by a -> mid -> b; one instance
  // reports as duplicate, the other as implied by the alternate path.
  EXPECT_TRUE(sawImplied);
  // a -> mid (and mid -> b) order no conflicting accesses themselves; with
  // the direct a -> b edges present they are removable outright.
  EXPECT_TRUE(sawNoConflict);
}

// ---------------------------------------------------------------------------
// Real step graphs.
// ---------------------------------------------------------------------------

constexpr grid::Real kDt = 1e-3;

/// One forward-Euler step: exchange, RHS evaluation, axpy.
core::StepProgram eulerStep() {
  return solvers::buildStepProgram(solvers::Scheme::ForwardEuler, kDt);
}

/// Where a step graph is lowered: a periodic level of `perSide`^3 boxes
/// of side `boxSize`, a pool of `nThreads` workers (task ownership, and
/// with it the steal-heavy replay order, depends on it), and the tile
/// size of the tiled families.
struct StepSetup {
  int perSide;
  int boxSize;
  int nThreads;
  int tile;
};

/// 8 boxes of 16^3 on 3 workers with tile-8 families, and the same level
/// on 2 and 8 workers with tile-4 families.
constexpr StepSetup kStepSetups[] = {
    {2, 16, 3, 8}, {2, 16, 2, 4}, {2, 16, 8, 4}};
/// 27 boxes of 8^3: more boxes than workers, tiles of half a box.
constexpr StepSetup kSmallBoxSetups[] = {{3, 8, 2, 4}, {3, 8, 8, 4}};

/// `s`'s workers and tile size on one periodic 24^3 box, whose 20-cell
/// interior spans two logical tiles (16 + 4) in y and in z: the parallel
/// policy lowers it to per-tile RHS and combine tasks.
constexpr StepSetup tiledSetup(const StepSetup& s) {
  return {1, 24, s.nThreads, s.tile};
}

LevelData makeLevel(Pitch pitch, const StepSetup& s = kStepSetups[0]) {
  const ProblemDomain dom(Box::cube(s.perSide * s.boxSize));
  const DisjointBoxLayout dbl(dom, s.boxSize);
  LevelData u(dbl, kernels::kNumComp, kernels::kNumGhost, pitch);
  kernels::initializeExemplar(u);
  return u;
}

TaskGraphModel lowerModel(const VariantConfig& cfg, LevelPolicy policy,
                          Pitch pitch, const StepSetup& s = kStepSetups[0]) {
  LevelData u = makeLevel(pitch, s);
  core::StepExecOptions opts;
  opts.policy = policy;
  core::StepGraphExecutor exec(cfg, s.nThreads, opts);
  return exec.lowerModel(eulerStep(), u, {});
}

/// The eager step from the exemplar state: the bit-identity reference.
LevelData eagerStep(const VariantConfig& cfg, Pitch pitch,
                    const StepSetup& s = kStepSetups[0]) {
  LevelData u = makeLevel(pitch, s);
  solvers::FluxDivRhs rhs(cfg, s.nThreads);
  solvers::TimeIntegrator integ(solvers::Scheme::ForwardEuler, u.layout());
  integ.advanceEager(u, kDt, rhs);
  return u;
}

TEST(GraphCheck, AllPolicyFamiliesAndPitchesVerifyClean) {
  std::vector<StepSetup> setups(std::begin(kStepSetups), std::end(kStepSetups));
  setups.insert(setups.end(), std::begin(kSmallBoxSetups),
                std::end(kSmallBoxSetups));
  for (const StepSetup& s : kStepSetups) {
    setups.push_back(tiledSetup(s));
  }
  for (const StepSetup& s : setups) {
    for (const Pitch pitch : {Pitch::Padded, Pitch::Dense}) {
      for (const VariantConfig& cfg : core::representativeFamilies(s.tile)) {
        for (const LevelPolicy policy : core::kLevelPolicies) {
          const TaskGraphModel m = lowerModel(cfg, policy, pitch, s);
          const GraphCheckReport rep = checkTaskGraph(m);
          EXPECT_TRUE(rep.ok()) << m.name << " on " << s.nThreads
                                << " workers: first diagnostic: "
                                << (rep.diagnostics.empty()
                                        ? std::string("-")
                                        : rep.diagnostics[0].message());
          EXPECT_GE(rep.taskCount, 8) << m.name;
          EXPECT_GT(rep.edgeCount, 0)
              << m.name << ": RHS tasks must be ordered after exchange ops";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded mutations: the checker must reject each with its predicted
// witness.
// ---------------------------------------------------------------------------

void expectMutationCaught(const TaskGraphModel& original,
                          const mutate::GraphMutation& mut,
                          std::uint64_t seed) {
  if (mut.expect == DiagnosticKind::Ok) {
    return; // this graph offers no candidate for the class
  }
  const GraphCheckReport rep = checkTaskGraph(mut.model);
  ASSERT_FALSE(rep.ok())
      << original.name << " seed " << seed << ": " << mut.what
      << " was accepted";
  EXPECT_TRUE(reported(rep, mut.expect, original.label(mut.taskA),
                       original.label(mut.taskB)))
      << original.name << " seed " << seed << ": " << mut.what
      << "\n  expected " << diagnosticKindName(mut.expect) << " naming '"
      << original.label(mut.taskA) << "' vs '"
      << original.label(mut.taskB) << "', first diagnostic: "
      << rep.diagnostics[0].message();
}

TEST(GraphCheckMutation, SeededMutationsProduceTheExpectedDiagnostic) {
  // Step graphs of the parallel policy over one-tile boxes and over a box
  // cut into logical tiles: both have conflict-carrying edges to
  // drop/reroute and exchange-op writes to shrink. First a box-parallel
  // family and the overlapped-tile family, then every family on 2 and 8
  // workers.
  std::vector<TaskGraphModel> models = {
      lowerModel(core::representativeFamilies(8)[1], LevelPolicy::BoxParallel,
                 Pitch::Padded),
      lowerModel(core::representativeFamilies(8)[4], LevelPolicy::BoxParallel,
                 Pitch::Padded, tiledSetup(kStepSetups[0])),
  };
  for (const StepSetup& s : {kStepSetups[1], kStepSetups[2]}) {
    for (const VariantConfig& cfg : core::representativeFamilies(s.tile)) {
      for (const StepSetup& level : {s, tiledSetup(s)}) {
        models.push_back(
            lowerModel(cfg, LevelPolicy::BoxParallel, Pitch::Padded, level));
      }
    }
  }
  int total = 0;
  for (const TaskGraphModel& m : models) {
    int executed = 0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const mutate::GraphMutation muts[] = {
          mutate::dropGraphEdge(m, seed),
          mutate::rerouteGraphEdge(m, seed),
          mutate::shrinkGhostWrite(m, seed),
      };
      for (const mutate::GraphMutation& mut : muts) {
        expectMutationCaught(m, mut, seed);
        executed += mut.expect != DiagnosticKind::Ok ? 1 : 0;
      }
    }
    EXPECT_EQ(executed, 5 * 3)
        << m.name << ": a step graph must offer candidates for "
        << "every mutation class at every seed";
    total += executed;
  }
  EXPECT_EQ(total, 22 * 5 * 3);
}

TEST(GraphCheckMutation, MutationsAreDeterministicPerSeed) {
  const TaskGraphModel m =
      lowerModel(core::representativeFamilies(8)[0], LevelPolicy::BoxParallel,
                 Pitch::Padded);
  const mutate::GraphMutation a = mutate::dropGraphEdge(m, 3);
  const mutate::GraphMutation b = mutate::dropGraphEdge(m, 3);
  EXPECT_EQ(a.what, b.what);
  EXPECT_EQ(a.taskA, b.taskA);
  EXPECT_EQ(a.taskB, b.taskB);
  EXPECT_EQ(a.expect, b.expect);
}

// ---------------------------------------------------------------------------
// Adversarial replay: hostile orderings stay bit-identical (and, when
// FLUXDIV_SHADOW_CHECK is compiled in, shadow-race-free).
// ---------------------------------------------------------------------------

TEST(GraphCheckReplay, HostileOrderingsAreBitIdenticalToSequential) {
  std::vector<StepSetup> setups(std::begin(kStepSetups), std::end(kStepSetups));
  setups.push_back(tiledSetup(kStepSetups[0]));
  for (const StepSetup& s : setups) {
    for (const VariantConfig& cfg : core::representativeFamilies(s.tile)) {
      const LevelData expected = eagerStep(cfg, Pitch::Padded, s);
      for (const LevelPolicy policy : core::kLevelPolicies) {
        for (const core::ReplayOrder order : core::kReplayOrders) {
          for (const std::uint64_t seed : {42ull, 1234ull}) {
            core::StepExecOptions opts;
            opts.policy = policy;
            opts.replay = {order, seed};
            core::StepGraphExecutor exec(cfg, s.nThreads, opts);
            LevelData actual = makeLevel(Pitch::Padded, s);
            exec.run(eulerStep(), actual, {});
            EXPECT_EQ(LevelData::maxAbsDiffValid(expected, actual), 0.0)
                << cfg.name() << " / " << core::levelPolicyName(policy)
                << " / " << core::replayOrderName(order) << " seed "
                << seed << " on " << s.nThreads << " workers";
            if (order != core::ReplayOrder::Random) {
              break; // the seed only matters for Random
            }
          }
        }
      }
    }
  }
}

TEST(GraphCheckReplay, RunStepReplayExchangesAndMatches) {
  // 16^3 boxes are one logical tile each: their RHS tasks gather their
  // halos and the step writes no ghost of u. A 24^3 box is two tiles in y
  // and z, so its step lowers the exchange into u's face ghosts.
  const VariantConfig cfg = core::representativeFamilies(8)[1];
  for (const StepSetup& s : {kStepSetups[0], tiledSetup(kStepSetups[0])}) {
    const LevelData expected = eagerStep(cfg, Pitch::Padded, s);
    for (const core::ReplayOrder order : core::kReplayOrders) {
      // Start from clobbered ghosts: a skipped or short-circuited exchange
      // task or halo gather would show up in the RHS, hence in the stepped
      // solution.
      LevelData u = makeLevel(Pitch::Padded, s);
      for (std::size_t b = 0; b < u.size(); ++b) {
        grid::FArrayBox& fab = u[b];
        const Box valid = u.validBox(b);
        for (int c = 0; c < kernels::kNumComp; ++c) {
          grid::Real* p = fab.dataPtr(c);
          grid::forEachCell(fab.box(), [&](int i, int j, int k) {
            if (!valid.contains(IntVect(i, j, k))) {
              p[fab.offset(i, j, k)] = -1.0e30;
            }
          });
        }
      }
      core::StepExecOptions opts;
      opts.policy = LevelPolicy::BoxParallel;
      opts.replay = {order, /*seed=*/42};
      core::StepGraphExecutor exec(cfg, 3, opts);
      exec.run(eulerStep(), u, {});
      const bool exchanges = exec.stats().exchangeOps > 0;
      EXPECT_EQ(exchanges, s.perSide == 1) << "box side " << s.boxSize;
      // Valid cells, and the face ghosts the step's exchange filled, match
      // the eager step. The step reads no edge or corner ghost, so its
      // exchange copies none: they keep the clobber value, as every ghost
      // does under the gather lowering.
      for (std::size_t b = 0; b < u.size(); ++b) {
        const Box valid = u.validBox(b);
        const grid::FArrayBox& got = u[b];
        const grid::FArrayBox& want = expected[b];
        int mismatches = 0;
        for (int c = 0; c < kernels::kNumComp; ++c) {
          grid::forEachCell(got.box(), [&](int i, int j, int k) {
            const IntVect p(i, j, k);
            int outside = 0;
            for (int d = 0; d < grid::SpaceDim; ++d) {
              outside += p[d] < valid.lo(d) || p[d] > valid.hi(d);
            }
            const grid::Real w = outside == 0 || (exchanges && outside == 1)
                                     ? want.dataPtr(c)[want.offset(i, j, k)]
                                     : -1.0e30;
            mismatches += got.dataPtr(c)[got.offset(i, j, k)] != w;
          });
        }
        EXPECT_EQ(mismatches, 0) << core::replayOrderName(order) << " box "
                                 << b << " of side " << s.boxSize;
      }
    }
  }
}

} // namespace
} // namespace fluxdiv::analysis
