// Whole-RK-step task graphs (core/stepgraph.hpp + the TimeIntegrator fuse
// modes): bit-identity of every fuse mode against the eager reference
// across schemes, schedule families, policies, pitches, and thread counts
// (including steps that start from stale ghosts); the deepened-halo
// plan of the comm-avoiding transform; graphcheck verification of every
// lowered model; seeded cross-stage edge-drop mutations; and adversarial
// serial replay of the fused graphs.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/graphcheck.hpp"
#include "analysis/mutate.hpp"
#include "core/kernelshapes.hpp"
#include "core/stepgraph.hpp"
#include "grid/bc.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "solvers/integrator.hpp"

namespace fluxdiv::solvers {
namespace {

using analysis::DiagnosticKind;
using analysis::GraphCheckReport;
using analysis::TaskGraphModel;
using core::LevelPolicy;
using core::StepFuse;
using grid::Box;
using grid::DisjointBoxLayout;
using grid::LevelData;
using grid::Pitch;
using grid::ProblemDomain;
using grid::Real;
using kernels::kNumComp;
using kernels::kNumGhost;

DisjointBoxLayout smallLayout(int n = 16, int box = 8) {
  return DisjointBoxLayout(ProblemDomain(Box::cube(n)), box);
}

LevelData initialState(const DisjointBoxLayout& dbl,
                       Pitch pitch = Pitch::Padded) {
  LevelData u(dbl, kNumComp, kNumGhost, pitch);
  kernels::initializeExemplar(u);
  return u;
}

core::VariantConfig tiledConfig() {
  return core::makeOverlapped(core::IntraTileSchedule::ShiftFuse, 4,
                              core::ParallelGranularity::HybridBoxTile);
}

constexpr StepFuse kGraphModes[] = {StepFuse::Fused, StepFuse::CommAvoid};

/// Advance `steps` eager steps of `scheme` from the exemplar state.
LevelData eagerReference(Scheme scheme, const DisjointBoxLayout& dbl,
                         const core::VariantConfig& cfg, Real dt,
                         int steps, int threads,
                         Pitch pitch = Pitch::Padded) {
  LevelData u = initialState(dbl, pitch);
  FluxDivRhs rhs(cfg, threads);
  TimeIntegrator integ(scheme, dbl);
  integ.setStepFuse(StepFuse::Eager);
  for (int s = 0; s < steps; ++s) {
    integ.advance(u, dt, rhs);
  }
  return u;
}

std::string caseName(Scheme scheme, StepFuse fuse, LevelPolicy policy,
                     int threads) {
  return std::string(schemeName(scheme)) + "/" + core::stepFuseName(fuse) +
         "/" + core::levelPolicyName(policy) + "/T" +
         std::to_string(threads);
}

// ---------------------------------------------------------------------------
// Bit-identity: every fuse mode x policy x thread count reproduces the
// eager reference exactly.
// ---------------------------------------------------------------------------

TEST(StepGraph, BitIdenticalAcrossSchemesFuseModesAndPolicies) {
  const auto dbl = smallLayout();
  const Real dt = 0.005;
  const int steps = 3;
  const auto cfg = tiledConfig();
  for (const Scheme scheme : kSchemes) {
    for (const int threads : {1, 3}) {
      const LevelData ref =
          eagerReference(scheme, dbl, cfg, dt, steps, threads);
      for (const StepFuse fuse : kGraphModes) {
        for (const LevelPolicy policy : core::kLevelPolicies) {
          LevelData u = initialState(dbl);
          FluxDivRhs rhs(cfg, threads);
          TimeIntegrator integ(scheme, dbl);
          integ.setStepFuse(fuse);
          integ.setLevelPolicy(policy);
          for (int s = 0; s < steps; ++s) {
            integ.advance(u, dt, rhs);
          }
          EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
              << caseName(scheme, fuse, policy, threads);
        }
      }
    }
  }
}

TEST(StepGraph, BitIdenticalWithDensePitch) {
  const auto dbl = smallLayout();
  const Real dt = 0.004;
  const auto cfg = core::makeShiftFuse(core::ParallelGranularity::OverBoxes);
  for (const Scheme scheme : {Scheme::SSPRK3, Scheme::RK4}) {
    const LevelData ref =
        eagerReference(scheme, dbl, cfg, dt, 2, 2, Pitch::Dense);
    for (const StepFuse fuse : kGraphModes) {
      LevelData u = initialState(dbl, Pitch::Dense);
      FluxDivRhs rhs(cfg, 2);
      TimeIntegrator integ(scheme, dbl);
      integ.setStepFuse(fuse);
      for (int s = 0; s < 2; ++s) {
        integ.advance(u, dt, rhs);
      }
      EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
          << schemeName(scheme) << "/" << core::stepFuseName(fuse)
          << " dense pitch";
    }
  }
}

/// One exchange, one RHS evaluation, one axpy: the level-scale graph of
/// every family under each of `policies` and every fuse mode, on both fab
/// pitches, must reproduce the eager (FluxDivRunner) step.
void expectEulerBitIdenticalAcrossFamilies(
    std::initializer_list<LevelPolicy> policies) {
  const auto dbl = smallLayout();
  const Real dt = 0.005;
  for (const Pitch pitch : {Pitch::Padded, Pitch::Dense}) {
    // Tile 4 fits the 8^3 boxes of smallLayout().
    for (const core::VariantConfig& cfg : core::representativeFamilies(4)) {
      for (const int threads : {1, 3}) {
        const LevelData ref = eagerReference(Scheme::ForwardEuler, dbl, cfg,
                                             dt, 1, threads, pitch);
        for (const StepFuse fuse : kGraphModes) {
          for (const LevelPolicy policy : policies) {
            LevelData u = initialState(dbl, pitch);
            FluxDivRhs rhs(cfg, threads);
            TimeIntegrator integ(Scheme::ForwardEuler, dbl);
            integ.setStepFuse(fuse);
            integ.setLevelPolicy(policy);
            integ.advance(u, dt, rhs);
            EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
                << cfg.name() << " / "
                << caseName(Scheme::ForwardEuler, fuse, policy, threads)
                << " / " << (pitch == Pitch::Padded ? "padded" : "dense");
          }
        }
      }
    }
  }
}

TEST(StepGraph, EulerBitIdenticalAcrossFamiliesPoliciesAndPitches) {
  expectEulerBitIdenticalAcrossFamilies(
      {LevelPolicy::BoxParallel, LevelPolicy::Hybrid});
}

TEST(StepGraph, SequentialPolicyMatchesRunnerAcrossFamilies) {
  // Whole-box tasks only: the graph degenerates to one task per box and
  // op, which must still equal the runner's eager evaluation.
  expectEulerBitIdenticalAcrossFamilies({LevelPolicy::BoxSequential});
}

/// Start every graph step from clobbered ghosts under `policy`: a skipped
/// or short-circuited exchange task would show up in the RHS, hence in the
/// stepped solution.
void expectExchangeTasksReplaceStaleGhosts(LevelPolicy policy) {
  const auto dbl = smallLayout();
  const Real dt = 0.005;
  const auto cfg = tiledConfig();
  const LevelData ref = eagerReference(Scheme::ForwardEuler, dbl, cfg, dt,
                                       1, 3);
  for (const StepFuse fuse : kGraphModes) {
    LevelData u = initialState(dbl);
    for (std::size_t b = 0; b < u.size(); ++b) {
      grid::FArrayBox& fab = u[b];
      const Box valid = u.validBox(b);
      for (int c = 0; c < kNumComp; ++c) {
        Real* p = fab.dataPtr(c);
        grid::forEachCell(fab.box(), [&](int i, int j, int k) {
          if (!valid.contains(grid::IntVect(i, j, k))) {
            p[fab.offset(i, j, k)] = -1.0e30;
          }
        });
      }
    }
    FluxDivRhs rhs(cfg, 3);
    TimeIntegrator integ(Scheme::ForwardEuler, dbl);
    integ.setStepFuse(fuse);
    integ.setLevelPolicy(policy);
    integ.advance(u, dt, rhs);
    EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
        << caseName(Scheme::ForwardEuler, fuse, policy, 3);
  }
}

TEST(StepGraph, ExchangeTasksReplaceStaleGhosts) {
  expectExchangeTasksReplaceStaleGhosts(LevelPolicy::BoxParallel);
  expectExchangeTasksReplaceStaleGhosts(LevelPolicy::Hybrid);
}

TEST(StepGraph, SequentialPolicyStillExchanges) {
  expectExchangeTasksReplaceStaleGhosts(LevelPolicy::BoxSequential);
}

TEST(StepGraph, InvDxIsHonoredUnderEveryPolicy) {
  const auto dbl = smallLayout();
  const Real dt = 0.002;
  const auto cfg = tiledConfig();
  LevelData ref = initialState(dbl);
  {
    FluxDivRhs rhs(cfg, 2, /*invDx=*/2.0);
    TimeIntegrator integ(Scheme::Midpoint, dbl);
    integ.setStepFuse(StepFuse::Eager);
    integ.advance(ref, dt, rhs);
  }
  for (const StepFuse fuse : kGraphModes) {
    for (const LevelPolicy policy : core::kLevelPolicies) {
      LevelData u = initialState(dbl);
      FluxDivRhs rhs(cfg, 2, /*invDx=*/2.0);
      TimeIntegrator integ(Scheme::Midpoint, dbl);
      integ.setStepFuse(fuse);
      integ.setLevelPolicy(policy);
      integ.advance(u, dt, rhs);
      EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
          << caseName(Scheme::Midpoint, fuse, policy, 2) << " invDx=2";
    }
  }
}

TEST(StepGraph, BitIdenticalWithDissipation) {
  const auto dbl = smallLayout();
  const Real dt = 0.004;
  const auto cfg = tiledConfig();
  LevelData ref = initialState(dbl);
  {
    FluxDivRhs rhs(cfg, 2, /*invDx=*/1.0, nullptr, /*dissipation=*/0.05);
    TimeIntegrator integ(Scheme::RK4, dbl);
    integ.setStepFuse(StepFuse::Eager);
    integ.advance(ref, dt, rhs);
  }
  for (const StepFuse fuse : kGraphModes) {
    LevelData u = initialState(dbl);
    FluxDivRhs rhs(cfg, 2, /*invDx=*/1.0, nullptr, /*dissipation=*/0.05);
    TimeIntegrator integ(Scheme::RK4, dbl);
    integ.setStepFuse(fuse);
    integ.advance(u, dt, rhs);
    EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
        << core::stepFuseName(fuse) << " with dissipation";
  }
}

TEST(StepGraph, WallBoundedBitIdentical) {
  // Walls on x, periodic y/z: the BC fill becomes per-(box, dim) tasks in
  // the Fused graph; CommAvoid must fall back to Fused (deepened
  // halos cannot re-apply physical BCs between stages).
  const int n = 16;
  ProblemDomain domain(Box::cube(n), std::array<bool, 3>{false, true, true});
  DisjointBoxLayout dbl(domain, 8);
  grid::BoundarySpec spec;
  spec.type[0] = {grid::BCType::ReflectiveWall, grid::BCType::ReflectiveWall};
  grid::BoundaryFiller walls(dbl, spec);
  const Real dt = 0.004;
  const auto cfg = tiledConfig();
  for (const Scheme scheme : {Scheme::Midpoint, Scheme::RK4}) {
    LevelData ref = initialState(dbl);
    {
      FluxDivRhs rhs(cfg, 2, 1.0, &walls);
      TimeIntegrator integ(scheme, dbl);
      integ.setStepFuse(StepFuse::Eager);
      for (int s = 0; s < 2; ++s) {
        integ.advance(ref, dt, rhs);
      }
    }
    for (const StepFuse fuse : kGraphModes) {
      for (const LevelPolicy policy :
           {LevelPolicy::BoxParallel, LevelPolicy::Hybrid}) {
        LevelData u = initialState(dbl);
        FluxDivRhs rhs(cfg, 2, 1.0, &walls);
        TimeIntegrator integ(scheme, dbl);
        integ.setStepFuse(fuse);
        integ.setLevelPolicy(policy);
        for (int s = 0; s < 2; ++s) {
          integ.advance(u, dt, rhs);
        }
        EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
            << caseName(scheme, fuse, policy, 2) << " wall-bounded";
        if (fuse == StepFuse::CommAvoid) {
          ASSERT_NE(integ.stepStats(), nullptr);
          EXPECT_EQ(integ.stepStats()->fuse, StepFuse::Fused)
              << "boundary conditions must force the CommAvoid fallback";
        }
      }
    }
  }
}

TEST(StepGraph, MultiStepCaptureMatchesRepeatedAdvance) {
  const auto dbl = smallLayout();
  const Real dt = 0.004;
  const int steps = 3;
  const auto cfg = tiledConfig();
  for (const Scheme scheme : {Scheme::Midpoint, Scheme::RK4}) {
    const LevelData ref = eagerReference(scheme, dbl, cfg, dt, steps, 2);
    for (const StepFuse fuse : {StepFuse::Fused, StepFuse::CommAvoid}) {
      LevelData u = initialState(dbl);
      FluxDivRhs rhs(cfg, 2);
      TimeIntegrator integ(scheme, dbl);
      integ.setStepFuse(fuse);
      integ.advanceSteps(u, dt, rhs, steps);
      EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
          << schemeName(scheme) << "/" << core::stepFuseName(fuse)
          << " multi-step";
      ASSERT_NE(integ.stepStats(), nullptr);
      EXPECT_EQ(integ.stepStats()->graphCount, 1u)
          << "a multi-step capture must dispatch as one graph";
      EXPECT_TRUE(integ.stepStats()->rebuilt);
      // A different LevelData with the same layout signature REBINDS into
      // the cached graphs instead of re-lowering (layout-keyed reuse),
      // and must still produce the bit-identical result.
      const std::uint64_t rebinds0 = integ.stepStats()->rebinds;
      LevelData u2 = initialState(dbl);
      integ.advanceSteps(u2, dt, rhs, steps);
      EXPECT_FALSE(integ.stepStats()->rebuilt)
          << "same layout signature must reuse the cached graphs";
      EXPECT_GT(integ.stepStats()->rebinds, rebinds0)
          << "a reallocated solution must be counted as a rebind";
      EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u2), 0.0)
          << schemeName(scheme) << "/" << core::stepFuseName(fuse)
          << " rebound multi-step";
      integ.advanceSteps(u2, dt, rhs, steps);
      EXPECT_FALSE(integ.stepStats()->rebuilt);
    }
  }
}

// ---------------------------------------------------------------------------
// The comm-avoiding halo plan.
// ---------------------------------------------------------------------------

TEST(StepGraph, CommAvoidDeepensTheExchangeToGhostTimesStages) {
  for (const Scheme scheme : kSchemes) {
    const core::StepProgram prog = buildStepProgram(scheme, 0.01);
    EXPECT_EQ(prog.rhsEvals, schemeRhsEvals(scheme));

    const core::StepHaloPlan fused =
        core::planStepHalos(prog, StepFuse::Fused);
    EXPECT_EQ(fused.depth, kNumGhost);

    const core::StepHaloPlan ca =
        core::planStepHalos(prog, StepFuse::CommAvoid);
    EXPECT_EQ(ca.depth, kNumGhost * schemeRhsEvals(scheme))
        << schemeName(scheme);
    int keptExchanges = 0;
    int firstRhsWidth = -1;
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      if (prog.ops[i].kind == core::StepOpKind::Exchange) {
        if (ca.width[i] >= 0) {
          ++keptExchanges;
          EXPECT_EQ(prog.ops[i].dst, 0)
              << "only the solution exchange survives";
          EXPECT_EQ(ca.width[i], ca.depth);
        }
      } else if (prog.ops[i].kind == core::StepOpKind::RhsEval &&
                 firstRhsWidth < 0) {
        firstRhsWidth = ca.width[i];
      }
    }
    EXPECT_EQ(keptExchanges, 1) << schemeName(scheme);
    // Stage 1 recomputes on the widest halo: depth minus one stencil.
    EXPECT_EQ(firstRhsWidth, ca.depth - kNumGhost) << schemeName(scheme);
  }
}

TEST(StepGraph, CommAvoidFallsBackWhenHaloExceedsBox) {
  // RK4 needs an 8-deep halo; on 4^3 boxes the Copier cannot provide it.
  DisjointBoxLayout dbl(ProblemDomain(Box::cube(8)), 4);
  const auto cfg = core::makeShiftFuse(core::ParallelGranularity::OverBoxes);
  const Real dt = 0.004;
  const LevelData ref = eagerReference(Scheme::RK4, dbl, cfg, dt, 2, 2);
  LevelData u = initialState(dbl);
  FluxDivRhs rhs(cfg, 2);
  TimeIntegrator integ(Scheme::RK4, dbl);
  integ.setStepFuse(StepFuse::CommAvoid);
  for (int s = 0; s < 2; ++s) {
    integ.advance(u, dt, rhs);
  }
  EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0);
  ASSERT_NE(integ.stepStats(), nullptr);
  EXPECT_EQ(integ.stepStats()->fuse, StepFuse::Fused);

  // Euler only needs depth 2: CommAvoid proper must engage there.
  LevelData v = initialState(dbl);
  TimeIntegrator euler(Scheme::ForwardEuler, dbl);
  euler.setStepFuse(StepFuse::CommAvoid);
  euler.advance(v, dt, rhs);
  ASSERT_NE(euler.stepStats(), nullptr);
  EXPECT_EQ(euler.stepStats()->fuse, StepFuse::CommAvoid);
  EXPECT_EQ(euler.stepStats()->exchangeDepth, 2);
}

// ---------------------------------------------------------------------------
// Graph verification: every lowered model must pass checkTaskGraph before
// first execution, and the stats must reflect the capture.
// ---------------------------------------------------------------------------

TEST(StepGraph, LoweredModelsPassGraphcheck) {
  // Every scheme, graph fuse mode, and policy captures exactly one graph
  // — phase 0 of the submission API, any other index a caller error —
  // and that graph is race-free.
  const auto dbl = smallLayout();
  const auto cfg = tiledConfig();
  for (const Scheme scheme : kSchemes) {
    const core::StepProgram prog = buildStepProgram(scheme, 0.01);
    for (const StepFuse fuse : kGraphModes) {
      for (const LevelPolicy policy : core::kLevelPolicies) {
        LevelData u = initialState(dbl);
        core::StepExecOptions opts;
        opts.fuse = fuse;
        opts.policy = policy;
        core::StepGraphExecutor exec(cfg, 2, opts);
        const std::string what = caseName(scheme, fuse, policy, 2);
        EXPECT_THROW((void)exec.beginPhase(0), std::logic_error)
            << what << ": no capture yet";
        EXPECT_EQ(exec.preparePhases(prog, u, {}), 1u) << what;
        EXPECT_EQ(exec.stats().graphCount, 1u) << what;
        EXPECT_THROW((void)exec.beginPhase(1), std::logic_error) << what;
        EXPECT_THROW(exec.endPhase(1), std::logic_error) << what;
        const TaskGraphModel m = exec.lowerModel(prog, u, {});
        const GraphCheckReport rep = analysis::checkTaskGraph(m);
        EXPECT_TRUE(rep.ok())
            << m.name << ": "
            << (rep.diagnostics.empty() ? std::string("-")
                                        : rep.diagnostics[0].message());
        EXPECT_GT(rep.edgeCount, 0) << m.name;
      }
    }
  }
}

TEST(StepGraph, CapturedEdgesGrowLinearlyWithSteps) {
  // A write drops the parts of earlier dependence-log entries it covers,
  // so every captured step after the first adds the same edges. Without
  // that, each task would carry an edge to every conflicting access of all
  // earlier stages and the edge count would grow quadratically.
  const auto dbl = smallLayout();
  const auto edgesOf = [&](int steps) {
    LevelData u = initialState(dbl);
    core::StepExecOptions opts;
    opts.fuse = StepFuse::Fused;
    core::StepGraphExecutor exec(tiledConfig(), 2, opts);
    (void)exec.preparePhases(buildStepProgram(Scheme::RK4, 0.01, steps), u,
                             {});
    return exec.stats().edgeCount;
  };
  const std::size_t one = edgesOf(1);
  const std::size_t two = edgesOf(2);
  const std::size_t three = edgesOf(3);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(three - two, two - one)
      << "edges for 1/2/3 steps: " << one << " / " << two << " / " << three;
}

TEST(StepGraph, StatsReflectTheCapture) {
  const auto dbl = smallLayout();
  const auto cfg = tiledConfig();
  const core::StepProgram prog = buildStepProgram(Scheme::RK4, 0.01);
  LevelData u = initialState(dbl);

  core::StepExecOptions fused;
  fused.fuse = StepFuse::Fused;
  core::StepGraphExecutor fusedExec(cfg, 2, fused);
  fusedExec.run(prog, u, {});
  const core::StepGraphStats fusedStats = fusedExec.stats();
  EXPECT_EQ(fusedStats.fuse, StepFuse::Fused);
  EXPECT_EQ(fusedStats.graphCount, 1u);
  EXPECT_EQ(fusedStats.exchangeDepth, kNumGhost);
  EXPECT_GT(fusedStats.taskCount, 0u);
  EXPECT_GT(fusedStats.edgeCount, fusedStats.taskCount)
      << "cross-stage fusion must carry more dependencies than tasks";

  LevelData v = initialState(dbl);
  core::StepExecOptions ca;
  ca.fuse = StepFuse::CommAvoid;
  core::StepGraphExecutor caExec(cfg, 2, ca);
  caExec.run(prog, v, {});
  const core::StepGraphStats caStats = caExec.stats();
  EXPECT_EQ(caStats.fuse, StepFuse::CommAvoid);
  EXPECT_EQ(caStats.exchangeDepth, kNumGhost * schemeRhsEvals(Scheme::RK4));
  EXPECT_LT(caStats.exchangeOps, fusedStats.exchangeOps)
      << "one deepened exchange must replace four shallow ones";
}

TEST(StepGraph, EagerFuseIsRejectedByTheExecutor) {
  core::StepExecOptions opts;
  opts.fuse = StepFuse::Eager;
  EXPECT_THROW(core::StepGraphExecutor(tiledConfig(), 2, opts),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Seeded mutation: dropping a cross-stage dependency edge from the fused
// model must be rejected by graphcheck with the predicted witness pair.
// ---------------------------------------------------------------------------

bool reported(const GraphCheckReport& rep, DiagnosticKind kind,
              const std::string& labelA, const std::string& labelB) {
  for (const analysis::Diagnostic& d : rep.diagnostics) {
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

std::string firstWord(const std::string& s) {
  return s.substr(0, s.find(' '));
}

TEST(StepGraph, DroppedCrossStageEdgesAreCaught) {
  const auto dbl = smallLayout();
  LevelData u = initialState(dbl);
  core::StepExecOptions opts;
  opts.fuse = StepFuse::Fused;
  core::StepGraphExecutor exec(tiledConfig(), 2, opts);
  const TaskGraphModel m =
      exec.lowerModel(buildStepProgram(Scheme::RK4, 0.01), u, {});

  int caught = 0;
  int crossOp = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const analysis::mutate::GraphMutation mut =
        analysis::mutate::dropGraphEdge(m, seed);
    if (mut.expect == DiagnosticKind::Ok) {
      continue; // no candidate for this seed
    }
    const GraphCheckReport rep = analysis::checkTaskGraph(mut.model);
    ASSERT_FALSE(rep.ok()) << "seed " << seed << ": " << mut.what
                           << " was accepted";
    EXPECT_TRUE(reported(rep, mut.expect, m.label(mut.taskA),
                         m.label(mut.taskB)))
        << "seed " << seed << ": " << mut.what << "\n  expected "
        << analysis::diagnosticKindName(mut.expect) << " naming '"
        << m.label(mut.taskA) << "' vs '" << m.label(mut.taskB)
        << "', first diagnostic: " << rep.diagnostics[0].message();
    ++caught;
    if (firstWord(m.label(mut.taskA)) != firstWord(m.label(mut.taskB))) {
      ++crossOp; // e.g. an rhs task racing an axpy/exchange task
    }
  }
  EXPECT_GE(caught, 5) << "the fused RK4 graph must offer drop candidates";
  EXPECT_GE(crossOp, 1)
      << "at least one dropped edge must cross an op-kind boundary "
      << "(a cross-stage dependency)";
}

// ---------------------------------------------------------------------------
// Adversarial serial replay: hostile ready-set orderings (with hostile
// worker attribution for the shadow detector, when compiled in) stay
// bit-identical to the eager reference.
// ---------------------------------------------------------------------------

TEST(StepGraph, AdversarialReplayIsBitIdentical) {
  const auto dbl = smallLayout();
  const Real dt = 0.004;
  const auto cfg = tiledConfig();
  const LevelData ref = eagerReference(Scheme::RK4, dbl, cfg, dt, 1, 3);
  for (const core::ReplayOrder order : core::kReplayOrders) {
    for (const std::uint64_t seed : {1ull, 7ull}) {
      LevelData u = initialState(dbl);
      FluxDivRhs rhs(cfg, 3);
      TimeIntegrator integ(Scheme::RK4, dbl);
      integ.setStepFuse(StepFuse::Fused);
      integ.setLevelPolicy(LevelPolicy::Hybrid);
      integ.setReplay({order, seed});
      integ.advance(u, dt, rhs);
      EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
          << "replay " << core::replayOrderName(order) << " seed " << seed;
      if (order != core::ReplayOrder::Random) {
        break; // seed only matters for Random
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Defaults.
// ---------------------------------------------------------------------------

TEST(StepGraph, DefaultsAreFusedAndBoxParallel) {
  const auto dbl = smallLayout();
  const auto cfg = core::makeShiftFuse(core::ParallelGranularity::OverBoxes);
  LevelData u = initialState(dbl);
  FluxDivRhs rhs(cfg, 2);
  TimeIntegrator integ(Scheme::Midpoint, dbl);
  integ.advance(u, 0.004, rhs);
  ASSERT_NE(integ.stepStats(), nullptr);
  EXPECT_EQ(integ.stepStats()->fuse, StepFuse::Fused);
  EXPECT_EQ(integ.stepExecutor(rhs)->options().policy,
            LevelPolicy::BoxParallel);

  core::StepFuse parsed{};
  EXPECT_TRUE(core::parseStepFuse("comm-avoiding", parsed));
  EXPECT_EQ(parsed, StepFuse::CommAvoid);
  EXPECT_FALSE(core::parseStepFuse("staged", parsed))
      << "the removed per-stage mode is an unknown name";
  EXPECT_EQ(parsed, StepFuse::CommAvoid) << "untouched on failure";
  EXPECT_FALSE(core::parseStepFuse("nope", parsed));
  core::LevelPolicy policy = LevelPolicy::Hybrid;
  EXPECT_FALSE(core::parseLevelPolicy("warp-drive", policy));
  EXPECT_EQ(policy, LevelPolicy::Hybrid) << "untouched on failure";
}

} // namespace
} // namespace fluxdiv::solvers
