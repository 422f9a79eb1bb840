// Whole-RK-step task graphs (core/stepgraph.hpp via TimeIntegrator::advance):
// bit-identity of the fused graph against the eager reference
// (TimeIntegrator::advanceEager) across schemes, schedule families,
// policies, pitches, and thread counts
// (including steps that start from stale ghosts and boxes cut into
// logical tiles, and down to the sign of zero); the task structure of the
// logical tiles; graphcheck
// verification of every lowered model; seeded cross-stage edge-drop and
// ghost-layer-shave mutations; and adversarial serial replay of the fused
// graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
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

/// Advance `steps` eager steps of `scheme` from the exemplar state.
LevelData eagerReference(Scheme scheme, const DisjointBoxLayout& dbl,
                         const core::VariantConfig& cfg, Real dt,
                         int steps, int threads,
                         Pitch pitch = Pitch::Padded) {
  LevelData u = initialState(dbl, pitch);
  FluxDivRhs rhs(cfg, threads);
  TimeIntegrator integ(scheme, dbl);
  for (int s = 0; s < steps; ++s) {
    integ.advanceEager(u, dt, rhs);
  }
  return u;
}

std::string caseName(Scheme scheme, LevelPolicy policy, int threads) {
  return std::string(schemeName(scheme)) + "/" +
         core::levelPolicyName(policy) + "/T" + std::to_string(threads);
}

// ---------------------------------------------------------------------------
// Bit-identity: the fused graph under every policy x thread count
// reproduces the eager reference exactly.
// ---------------------------------------------------------------------------

/// Two 36^3 boxes: 2 x 2 logical tiles each, so the parallel policy cuts
/// every exchange copy at the tiles.
DisjointBoxLayout tiledLayout() {
  return DisjointBoxLayout(
      ProblemDomain(Box(grid::IntVect::zero(), grid::IntVect{71, 35, 35})),
      36);
}

TEST(StepGraph, BitIdenticalAcrossSchemesFuseModesAndPolicies) {
  const Real dt = 0.005;
  const int steps = 3;
  const auto cfg = tiledConfig();
  for (const DisjointBoxLayout& dbl : {smallLayout(), tiledLayout()}) {
    for (const Scheme scheme : kSchemes) {
      for (const int threads : {1, 3}) {
        const LevelData ref =
            eagerReference(scheme, dbl, cfg, dt, steps, threads);
        for (const LevelPolicy policy : core::kLevelPolicies) {
          LevelData u = initialState(dbl);
          FluxDivRhs rhs(cfg, threads);
          TimeIntegrator integ(scheme, dbl);
          integ.setLevelPolicy(policy);
          for (int s = 0; s < steps; ++s) {
            integ.advance(u, dt, rhs);
          }
          EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
              << caseName(scheme, policy, threads) << " " << dbl.size()
              << " boxes";
        }
      }
    }
  }
}

TEST(StepGraph, SharedPoolCaptureIsBitIdentical) {
  // The capture zeroes its stage levels as a graph of its own on the
  // executor's pool. A 1-thread shared pool runs nothing until wait()
  // lends it the calling thread, so a fill that was submitted but not
  // waited for would still be pending (or run over the step's results).
  const auto dbl = tiledLayout();
  const Real dt = 0.005;
  const auto cfg = tiledConfig();
  for (const int threads : {1, 4}) {
    core::TaskPool pool(threads);
    for (const Scheme scheme : kSchemes) {
      const LevelData ref = eagerReference(scheme, dbl, cfg, dt, 2, threads);
      core::StepExecOptions opts;
      opts.sharedPool = &pool;
      opts.domain = pool.createDomain();
      core::StepGraphExecutor exec(cfg, threads, opts);
      LevelData u = initialState(dbl);
      const core::StepProgram prog = buildStepProgram(scheme, dt);
      for (int s = 0; s < 2; ++s) {
        exec.run(prog, u, {});
      }
      EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
          << schemeName(scheme) << " on a " << threads << "-thread pool";
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
    LevelData u = initialState(dbl, Pitch::Dense);
    FluxDivRhs rhs(cfg, 2);
    TimeIntegrator integ(scheme, dbl);
    for (int s = 0; s < 2; ++s) {
      integ.advance(u, dt, rhs);
    }
    EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
        << schemeName(scheme) << " dense pitch";
  }
}

/// One exchange, one RHS evaluation, one axpy: the level-scale graph of
/// every family under each of `policies`, on both fab pitches, must
/// reproduce the eager (FluxDivRunner) step.
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
        for (const LevelPolicy policy : policies) {
          LevelData u = initialState(dbl, pitch);
          FluxDivRhs rhs(cfg, threads);
          TimeIntegrator integ(Scheme::ForwardEuler, dbl);
          integ.setLevelPolicy(policy);
          integ.advance(u, dt, rhs);
          EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
              << cfg.name() << " / "
              << caseName(Scheme::ForwardEuler, policy, threads) << " / "
              << (pitch == Pitch::Padded ? "padded" : "dense");
        }
      }
    }
  }
}

TEST(StepGraph, EulerBitIdenticalAcrossFamiliesPoliciesAndPitches) {
  expectEulerBitIdenticalAcrossFamilies({LevelPolicy::BoxParallel});
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
  integ.setLevelPolicy(policy);
  integ.advance(u, dt, rhs);
  EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
      << caseName(Scheme::ForwardEuler, policy, 3);
}

TEST(StepGraph, ExchangeTasksReplaceStaleGhosts) {
  expectExchangeTasksReplaceStaleGhosts(LevelPolicy::BoxParallel);
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
    integ.advanceEager(ref, dt, rhs);
  }
  for (const LevelPolicy policy : core::kLevelPolicies) {
    LevelData u = initialState(dbl);
    FluxDivRhs rhs(cfg, 2, /*invDx=*/2.0);
    TimeIntegrator integ(Scheme::Midpoint, dbl);
    integ.setLevelPolicy(policy);
    integ.advance(u, dt, rhs);
    EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
        << caseName(Scheme::Midpoint, policy, 2) << " invDx=2";
  }
}

TEST(StepGraph, BitIdenticalWithDissipation) {
  const Real dt = 0.004;
  const auto cfg = tiledConfig();
  for (const DisjointBoxLayout& dbl : {smallLayout(), tiledLayout()}) {
    LevelData ref = initialState(dbl);
    {
      FluxDivRhs rhs(cfg, 2, /*invDx=*/1.0, nullptr, /*dissipation=*/0.05);
      TimeIntegrator integ(Scheme::RK4, dbl);
      integ.advanceEager(ref, dt, rhs);
    }
    LevelData u = initialState(dbl);
    FluxDivRhs rhs(cfg, 2, /*invDx=*/1.0, nullptr, /*dissipation=*/0.05);
    TimeIntegrator integ(Scheme::RK4, dbl);
    integ.advance(u, dt, rhs);
    EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
        << "with dissipation, " << dbl.size() << " boxes";
  }
}

/// Empty when every valid value of `got` has the bit pattern of `want`'s
/// (memcmp, so -0.0 and +0.0 differ), else the first differing cell.
std::string bitwiseMismatch(const LevelData& want, const LevelData& got) {
  for (std::size_t b = 0; b < want.size(); ++b) {
    const Box valid = want.validBox(b);
    const auto n = static_cast<std::size_t>(valid.size(0));
    for (int c = 0; c < want.nComp(); ++c) {
      for (int k = valid.lo(2); k <= valid.hi(2); ++k) {
        for (int j = valid.lo(1); j <= valid.hi(1); ++j) {
          const Real* w =
              want[b].dataPtr(c) + want[b].offset(valid.lo(0), j, k);
          const Real* g =
              got[b].dataPtr(c) + got[b].offset(valid.lo(0), j, k);
          for (std::size_t i = 0; i < n; ++i) {
            if (std::memcmp(w + i, g + i, sizeof(Real)) != 0) {
              return "box " + std::to_string(b) + " comp " +
                     std::to_string(c) + " cell (" +
                     std::to_string(valid.lo(0) + static_cast<int>(i)) +
                     "," + std::to_string(j) + "," + std::to_string(k) +
                     "): want " + std::to_string(w[i]) + ", got " +
                     std::to_string(g[i]);
            }
          }
        }
      }
    }
  }
  return {};
}

TEST(StepGraph, SignedZerosMatchEager) {
  // From u = -0.0 everywhere (ghosts included) every flux and flux
  // difference is a zero of either sign. Eager sums each cell's
  // differences into a zeroed k, and +0.0 + -0.0 is +0.0, so k holds
  // +0.0; a row that started from its first flux term instead of +0.0
  // could keep a -0.0, and u + dt k would then stay -0.0 where eager
  // gives +0.0. maxAbsDiff cannot see that, so compare bit patterns.
  const auto dbl = smallLayout();
  const Real dt = 0.004;
  const core::VariantConfig cfgs[] = {
      core::makeShiftFuse(core::ParallelGranularity::WithinBox,
                          core::ComponentLoop::Outside),
      core::makeShiftFuse(core::ParallelGranularity::WithinBox,
                          core::ComponentLoop::Inside),
      tiledConfig(), // a buffered family: k is accumulated in a tile
  };
  const auto negativeZero = [&] {
    LevelData u(dbl, kNumComp, kNumGhost);
    for (std::size_t b = 0; b < u.size(); ++b) {
      u[b].setVal(-0.0);
    }
    return u;
  };
  for (const core::VariantConfig& cfg : cfgs) {
    for (const Scheme scheme : kSchemes) {
      for (const Real diss : {0.0, 0.05}) {
        LevelData ref = negativeZero();
        {
          FluxDivRhs rhs(cfg, 2, 1.0, nullptr, diss);
          TimeIntegrator integ(scheme, dbl);
          integ.advanceEager(ref, dt, rhs);
        }
        for (const LevelPolicy policy : core::kLevelPolicies) {
          LevelData u = negativeZero();
          FluxDivRhs rhs(cfg, 2, 1.0, nullptr, diss);
          TimeIntegrator integ(scheme, dbl);
          integ.setLevelPolicy(policy);
          integ.advance(u, dt, rhs);
          EXPECT_EQ(bitwiseMismatch(ref, u), "")
              << cfg.name() << " / " << caseName(scheme, policy, 2)
              << " / dissipation " << diss;
        }
      }
    }
  }
}

TEST(StepGraph, WallBoundedBitIdentical) {
  // The BC fill becomes per-(box, dim) tasks in the fused graph. Walls on
  // x of 8^3 boxes (one tile each), and walls on x and y of 36^3 boxes,
  // whose 2 x 2 logical tiles cut every exchange copy into pieces that
  // the BC fills and RHS tiles read, with and without dissipation.
  struct Case {
    Box domain;
    int box;
    bool wallY;
  };
  const Case cases[] = {{Box::cube(16), 8, false},
                        {tiledLayout().domain().box(), 36, true}};
  const Real dt = 0.004;
  const auto cfg = tiledConfig();
  for (const Case& c : cases) {
    ProblemDomain domain(c.domain, std::array<bool, 3>{false, !c.wallY, true});
    DisjointBoxLayout dbl(domain, c.box);
    grid::BoundarySpec spec;
    spec.type[0] = {grid::BCType::ReflectiveWall, grid::BCType::ReflectiveWall};
    if (c.wallY) {
      spec.type[1] = spec.type[0];
    }
    grid::BoundaryFiller walls(dbl, spec);
    for (const Scheme scheme : kSchemes) {
      for (const Real diss : {0.0, 0.05}) {
        LevelData ref = initialState(dbl);
        {
          FluxDivRhs rhs(cfg, 2, 1.0, &walls, diss);
          TimeIntegrator integ(scheme, dbl);
          for (int s = 0; s < 2; ++s) {
            integ.advanceEager(ref, dt, rhs);
          }
        }
        for (const LevelPolicy policy : core::kLevelPolicies) {
          LevelData u = initialState(dbl);
          FluxDivRhs rhs(cfg, 2, 1.0, &walls, diss);
          TimeIntegrator integ(scheme, dbl);
          integ.setLevelPolicy(policy);
          for (int s = 0; s < 2; ++s) {
            integ.advance(u, dt, rhs);
          }
          EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
              << caseName(scheme, policy, 2) << " wall-bounded " << c.box
              << "^3 boxes, dissipation " << diss;
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
    LevelData u = initialState(dbl);
    FluxDivRhs rhs(cfg, 2);
    TimeIntegrator integ(scheme, dbl);
    integ.advanceSteps(u, dt, rhs, steps);
    EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
        << schemeName(scheme) << " multi-step";
    ASSERT_NE(integ.stepStats(), nullptr);
    EXPECT_EQ(integ.stepStats()->graphCount, 1u)
        << "a multi-step capture must dispatch as one graph";
    EXPECT_TRUE(integ.stepStats()->rebuilt);
    // A different LevelData with the same layout signature REBINDS into
    // the cached graphs instead of re-lowering (layout-keyed reuse), and
    // must still produce the bit-identical result.
    const std::uint64_t rebinds0 = integ.stepStats()->rebinds;
    LevelData u2 = initialState(dbl);
    integ.advanceSteps(u2, dt, rhs, steps);
    EXPECT_FALSE(integ.stepStats()->rebuilt)
        << "same layout signature must reuse the cached graphs";
    EXPECT_GT(integ.stepStats()->rebinds, rebinds0)
        << "a reallocated solution must be counted as a rebind";
    EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u2), 0.0)
        << schemeName(scheme) << " rebound multi-step";
    integ.advanceSteps(u2, dt, rhs, steps);
    EXPECT_FALSE(integ.stepStats()->rebuilt);
  }
}

// ---------------------------------------------------------------------------
// Logical tiles: under the parallel policy each box's RHS lowers to one
// task per logical tile (core::logicalTiles), which also runs the stage
// combines that follow the RHS on its tile.
// ---------------------------------------------------------------------------

TEST(StepGraph, LogicalTilesPartitionTheBox) {
  struct Case {
    int side;
    std::size_t perDim; ///< tiles in y and in z
  };
  for (const Case c : {Case{8, 1}, Case{16, 1}, Case{20, 1}, Case{21, 2},
                       Case{36, 2}, Case{40, 3}, Case{128, 8}}) {
    const Box valid = Box::cube(c.side, grid::IntVect{-3, 5, 7});
    const Box interior = valid.grow(-kNumGhost);
    const std::vector<Box> tiles = core::logicalTiles(valid);
    ASSERT_EQ(tiles.size(), c.perDim * c.perDim) << "side " << c.side;
    std::int64_t cells = 0;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      EXPECT_TRUE(valid.contains(tiles[t])) << c.side << " tile " << t;
      EXPECT_EQ(tiles[t].lo(0), valid.lo(0)) << "tiles span the full x";
      EXPECT_EQ(tiles[t].hi(0), valid.hi(0)) << "tiles span the full x";
      for (const int d : {1, 2}) {
        EXPECT_LE((tiles[t] & interior).size(d), core::kLogicalTileWidth)
            << c.side << " tile " << t << " d" << d;
      }
      for (std::size_t o = 0; o < t; ++o) {
        EXPECT_FALSE(tiles[t].intersects(tiles[o]))
            << c.side << " tiles " << o << ", " << t;
      }
      cells += tiles[t].numPts();
    }
    EXPECT_EQ(cells, valid.numPts()) << "the tiles cover the box";
  }
}

/// The model of one `scheme` step over a single periodic box of side
/// `side`, lowered fused under `policy`.
TaskGraphModel modelOnOneBox(int side, Scheme scheme = Scheme::ForwardEuler,
                             LevelPolicy policy = LevelPolicy::BoxParallel) {
  const DisjointBoxLayout dbl(ProblemDomain(Box::cube(side)), side);
  LevelData u = initialState(dbl);
  core::StepExecOptions opts;
  opts.policy = policy;
  core::StepGraphExecutor exec(
      core::makeShiftFuse(core::ParallelGranularity::WithinBox), 4, opts);
  return exec.lowerModel(buildStepProgram(scheme, 0.01), u, {});
}

/// Counts of the RHS and combine tasks of modelOnOneBox(side).
struct EulerTasks {
  int tile = 0;     ///< whole-tile RHS tasks
  int otherRhs = 0; ///< any other RHS task
  int combine = 0;  ///< axpy tasks
};

EulerTasks eulerTasksOnOneBox(int side) {
  EulerTasks n;
  for (const analysis::GraphTask& t : modelOnOneBox(side).tasks) {
    if (t.label.starts_with("rhs ")) {
      const bool tile = t.label.find(" tile") != std::string::npos ||
                        t.label.ends_with(" all");
      ++(tile ? n.tile : n.otherRhs);
    } else if (t.label.starts_with("axpy ")) {
      ++n.combine;
    }
  }
  return n;
}

TEST(StepGraph, LargeBoxLowersToOneTaskPerLogicalTile) {
  // 64^3: a 60^3 interior, 4 x 4 tiles, each one whole-tile RHS task and
  // one axpy task.
  const EulerTasks big = eulerTasksOnOneBox(64);
  EXPECT_EQ(big.tile, 16);
  EXPECT_EQ(big.otherRhs, 0);
  EXPECT_EQ(big.combine, 16);
  // 16^3: a 12^3 interior is one tile, the whole box.
  const EulerTasks small = eulerTasksOnOneBox(16);
  EXPECT_EQ(small.tile, 1);
  EXPECT_EQ(small.otherRhs, 0);
  EXPECT_EQ(small.combine, 1);
}

/// Tasks of `m` whose label starts with `word` followed by a space.
int tasksNamed(const TaskGraphModel& m, const std::string& word) {
  int n = 0;
  for (const analysis::GraphTask& t : m.tasks) {
    n += t.label.starts_with(word + " ") ? 1 : 0;
  }
  return n;
}

/// Whether any task of `m` reads or writes program slot `slot`.
bool touchesSlot(const TaskGraphModel& m, int slot) {
  for (const analysis::GraphTask& t : m.tasks) {
    for (const auto* list : {&t.reads, &t.writes}) {
      for (const analysis::TaskAccess& a : *list) {
        if (a.slot == slot) {
          return true;
        }
      }
    }
  }
  return false;
}

TEST(StepGraph, RhsTilesRunTheStageCombinesAndKeepKOffTheLevel) {
  // Every combine of midpoint, SSPRK3 and RK4 follows an RHS whose source
  // it does not write, so it runs in that RHS's tile tasks; k is read only
  // there, so it never reaches a level and needs no epoch barrier.
  for (const Scheme scheme : {Scheme::Midpoint, Scheme::SSPRK3, Scheme::RK4}) {
    const TaskGraphModel m = modelOnOneBox(64, scheme);
    for (const char* word : {"copy", "axpy", "scale", "epoch"}) {
      EXPECT_EQ(tasksNamed(m, word), 0) << schemeName(scheme) << " " << word;
    }
    EXPECT_EQ(tasksNamed(m, "rhs"), 16 * schemeRhsEvals(scheme))
        << schemeName(scheme);
    EXPECT_FALSE(touchesSlot(m, 1)) << schemeName(scheme) << ": slot k";
    EXPECT_TRUE(analysis::checkTaskGraph(m).ok()) << schemeName(scheme);
  }
  // Euler's u += dt k writes its RHS source: a separate axpy per tile
  // (LargeBoxLowersToOneTaskPerLogicalTile), reading k from its level.
  EXPECT_TRUE(touchesSlot(modelOnOneBox(64), 1));
}

TEST(StepGraph, SequentialPolicyKeepsKOnALevel) {
  // A whole-box task would need a whole box of per-thread buffer, so
  // under the sequential policy k stays a level (its combines still run
  // in the RHS task).
  const TaskGraphModel m =
      modelOnOneBox(64, Scheme::RK4, LevelPolicy::BoxSequential);
  EXPECT_TRUE(touchesSlot(m, 1));
  EXPECT_EQ(tasksNamed(m, "rhs"), 4);
  EXPECT_EQ(tasksNamed(m, "axpy") + tasksNamed(m, "copy"), 0);
  EXPECT_TRUE(analysis::checkTaskGraph(m).ok());
}

/// One step of `scheme` written out by hand with the public level calls
/// and literal coefficients: the one check that a step program computes
/// its scheme. RK4 and SSPRK3 take their former in-place form, with a
/// single stage slot that each stage overwrites.
void inPlaceStep(Scheme scheme, LevelData& u, Real dt, FluxDivRhs& rhs) {
  const DisjointBoxLayout& dbl = u.layout();
  LevelData k(dbl, kNumComp, kNumGhost);
  LevelData acc(dbl, kNumComp, kNumGhost);
  LevelData s(dbl, kNumComp, kNumGhost);
  const auto f = [&](LevelData& src) {
    src.exchange();
    if (rhs.boundary() != nullptr) {
      rhs.boundary()->fill(src);
    }
    rhs.evaluate(src, k);
  };
  switch (scheme) {
  case Scheme::ForwardEuler:
    f(u);
    addScaled(u, k, dt);
    break;
  case Scheme::Midpoint:
    f(u);
    copyValid(u, s);
    addScaled(s, k, 0.5 * dt);
    f(s);
    addScaled(u, k, dt);
    break;
  case Scheme::RK4:
    f(u);
    copyValid(k, acc);
    copyValid(u, s);
    addScaled(s, k, 0.5 * dt);
    f(s);
    addScaled(acc, k, 2.0);
    copyValid(u, s);
    addScaled(s, k, 0.5 * dt);
    f(s);
    addScaled(acc, k, 2.0);
    copyValid(u, s);
    addScaled(s, k, dt);
    f(s);
    addScaled(acc, k, 1.0);
    addScaled(u, acc, dt / 6.0);
    break;
  case Scheme::SSPRK3:
    f(u);
    copyValid(u, s);
    addScaled(s, k, dt);
    f(s);
    scaleValid(s, 0.25);
    addScaled(s, u, 0.75);
    addScaled(s, k, 0.25 * dt);
    f(s);
    scaleValid(u, 1.0 / 3.0);
    addScaled(u, s, 2.0 / 3.0);
    addScaled(u, k, 2.0 / 3.0 * dt);
    break;
  }
}

TEST(StepGraph, StagedProgramsMatchTheInPlaceSchemesBitwise) {
  // Every scheme's step program, run eager and fused for 2 steps, matches
  // the scheme written out by hand bit for bit, periodic and with walls
  // on x. A wrong coefficient, a misordered combine, a missing exchange
  // or a missing BC fill changes some cell; the second step reads u's
  // ghosts, so a step that skips u's exchange computes from the first
  // step's stale ghosts. The second stage slot of RK4 and SSPRK3 changes
  // storage, not arithmetic: each cell sees the in-place scheme's
  // operation sequence.
  const DisjointBoxLayout periodic = tiledLayout();
  const DisjointBoxLayout walled(
      ProblemDomain(periodic.domain().box(),
                    std::array<bool, 3>{false, true, true}),
      36);
  grid::BoundarySpec spec;
  spec.type[0] = {grid::BCType::ReflectiveWall, grid::BCType::ReflectiveWall};
  const grid::BoundaryFiller walls(walled, spec);
  const Real dt = 0.003;
  const auto cfg = tiledConfig();
  for (const bool wall : {false, true}) {
    const DisjointBoxLayout& dbl = wall ? walled : periodic;
    FluxDivRhs rhs(cfg, 2, 1.0, wall ? &walls : nullptr);
    for (const Scheme scheme : kSchemes) {
      LevelData ref = initialState(dbl);
      for (int step = 0; step < 2; ++step) {
        inPlaceStep(scheme, ref, dt, rhs);
      }
      for (const StepFuse fuse : {StepFuse::Eager, StepFuse::Fused}) {
        LevelData u = initialState(dbl);
        TimeIntegrator integ(scheme, dbl);
        for (int step = 0; step < 2; ++step) {
          if (fuse == StepFuse::Eager) {
            integ.advanceEager(u, dt, rhs);
          } else {
            integ.advance(u, dt, rhs);
          }
        }
        EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
            << schemeName(scheme) << " " << core::stepFuseName(fuse)
            << (wall ? " walls" : "");
      }
    }
  }
}

/// The copier sector ("sector[-1,0,0]") of an exchange-op label, without
/// the tile suffix of a piece ("... sector[-1,0,0] tile5").
std::string sectorOf(const std::string& label) {
  const std::size_t at = label.find("sector[");
  return label.substr(at, label.find(']', at) + 1 - at);
}

/// Whether exchange-op task `t` has a direct edge into `task`.
bool feeds(const analysis::GraphTask& t, std::size_t task) {
  return t.exchangeOp && std::ranges::find(t.successors,
                                           static_cast<int>(task)) !=
                             t.successors.end();
}

/// The copier sectors of the exchange-op tasks with a direct edge into
/// `task`.
std::set<std::string> exchangeSectorsFeeding(const TaskGraphModel& m,
                                             std::size_t task) {
  std::set<std::string> sectors;
  for (const analysis::GraphTask& t : m.tasks) {
    if (feeds(t, task)) {
      sectors.insert(sectorOf(t.label));
    }
  }
  return sectors;
}

TEST(StepGraph, EachTileWaitsOnlyForTheCopiesThatFeedIt) {
  // One periodic 64^3 box: tiles are cut at y, z = 18, 34, 50. A tile
  // away from the y/z rim reads ghosts only through its x faces, so its
  // RHS task must wait for the x-lo and x-hi face copies and no others; a
  // rim tile also waits for the y/z copies its footprint reaches.
  const TaskGraphModel m = modelOnOneBox(64);
  const grid::IntVect innerCell(32, 24, 24); // in the y, z in [18, 33] tile
  const grid::IntVect rimCell(0, 0, 0);
  std::size_t innerTask = m.tasks.size();
  std::size_t rimTask = m.tasks.size();
  for (std::size_t t = 0; t < m.tasks.size(); ++t) {
    const analysis::GraphTask& task = m.tasks[t];
    if (!task.label.starts_with("rhs ")) {
      continue;
    }
    for (const analysis::TaskAccess& w : task.writes) {
      if (w.region.contains(innerCell)) {
        innerTask = t;
      }
      if (w.region.contains(rimCell)) {
        rimTask = t;
      }
    }
  }
  ASSERT_LT(innerTask, m.tasks.size());
  ASSERT_LT(rimTask, m.tasks.size());
  EXPECT_EQ(exchangeSectorsFeeding(m, innerTask),
            (std::set<std::string>{"sector[-1,0,0]", "sector[+1,0,0]"}))
      << m.label(static_cast<int>(innerTask));
  EXPECT_EQ(exchangeSectorsFeeding(m, rimTask),
            (std::set<std::string>{"sector[-1,0,0]", "sector[+1,0,0]",
                                   "sector[0,-1,0]", "sector[0,0,-1]"}))
      << m.label(static_cast<int>(rimTask));
  // The x-face copies are cut at the tiles: each piece feeding the inner
  // tile writes ghosts in that tile's (y, z) cross-section only.
  const Box innerTile(grid::IntVect(-kNumGhost, 18, 18),
                      grid::IntVect(63 + kNumGhost, 33, 33));
  int xPieces = 0;
  for (const analysis::GraphTask& t : m.tasks) {
    if (!feeds(t, innerTask)) {
      continue;
    }
    ++xPieces;
    for (const analysis::TaskAccess& w : t.writes) {
      EXPECT_TRUE(innerTile.contains(w.region))
          << t.label << " writes outside the inner tile's cross-section";
    }
  }
  EXPECT_EQ(xPieces, 2);
}

/// Whether `to` is reachable from `from` along the model's edges.
bool hasPath(const TaskGraphModel& m, int from, int to) {
  std::vector<bool> seen(m.tasks.size(), false);
  std::vector<int> stack{from};
  while (!stack.empty()) {
    const int t = stack.back();
    stack.pop_back();
    if (t == to) {
      return true;
    }
    for (const int s : m.tasks[static_cast<std::size_t>(t)].successors) {
      if (!seen[static_cast<std::size_t>(s)]) {
        seen[static_cast<std::size_t>(s)] = true;
        stack.push_back(s);
      }
    }
  }
  return false;
}

/// The RHS task of RK stage `stage` (1-based) on logical tile `tile` of
/// modelOnOneBox: the stage-th task whose label names that tile.
int rhsTaskOf(const TaskGraphModel& m, int stage, std::size_t tile) {
  const std::string tag = " tile" + std::to_string(tile);
  int seen = 0;
  for (std::size_t t = 0; t < m.tasks.size(); ++t) {
    const std::string& label = m.tasks[t].label;
    if (label.starts_with("rhs ") && label.ends_with(tag) &&
        ++seen == stage) {
      return static_cast<int>(t);
    }
  }
  return -1;
}

TEST(StepGraph, StageTilesWaitOnlyForNeighbourTiles) {
  // One periodic 64^3 box under RK4, tiles cut at y, z = 18, 34, 50
  // (z-outer, y-inner: tile 5 is y, z in [18, 33], tile 15 is y, z in
  // [50, 63]). The inner tile's stage-2 RHS reads stage-1 results of
  // itself and its y/z neighbours, directly and through its x-face
  // exchange pieces; a whole-face x copy would make it wait for every
  // tile of stage 1, the far corner tile included.
  const TaskGraphModel m = modelOnOneBox(64, Scheme::RK4);
  const std::vector<Box> tiles = core::logicalTiles(Box::cube(64));
  ASSERT_EQ(tiles.size(), 16u);
  ASSERT_EQ(tiles[5].lo(1), 18);
  ASSERT_EQ(tiles[5].hi(2), 33);
  ASSERT_EQ(tiles[15].lo(1), 50);
  ASSERT_EQ(tiles[15].lo(2), 50);
  const int far = rhsTaskOf(m, 1, 15);
  const int inner = rhsTaskOf(m, 2, 5);
  ASSERT_GE(far, 0);
  ASSERT_GE(inner, 0);
  EXPECT_FALSE(hasPath(m, far, inner))
      << m.label(inner) << " waits for " << m.label(far);
  // The inner tile's own and neighbour stage-1 tasks stay ordered before it.
  for (const std::size_t before : {5u, 4u, 6u, 1u, 9u}) {
    EXPECT_TRUE(hasPath(m, rhsTaskOf(m, 1, before), inner))
        << m.label(rhsTaskOf(m, 1, before)) << " -> " << m.label(inner);
  }
}

TEST(StepGraph, EveryLoweredExchangeCopyHasAReader) {
  // An exchange lowers only the copies some later task reads: each copy
  // has a direct successor whose read of the same (slot, box) meets the
  // copy's write. The layouts are those that still lower exchanges:
  // multi-tile boxes, and one-tile boxes with walls (a periodic level of
  // one-tile boxes gathers its halos instead; HaloGatherReplacesExchanges).
  // The RHS reads face ghosts only, so on a periodic level without BCs
  // each exchange lowers the 6 face copies of every box under the
  // sequential policy; a wall-bounded level also keeps the edge copies
  // its BC fills read. One 64^3 box cuts each copy at its 4 x 4 logical
  // tiles under the parallel policy: 16 pieces per x-face copy, 4 per y-
  // or z-face copy.
  ProblemDomain walled(Box::cube(16), std::array<bool, 3>{false, true, true});
  const DisjointBoxLayout walledLayout(walled, 8);
  grid::BoundarySpec spec;
  spec.type[0] = {grid::BCType::ReflectiveWall, grid::BCType::ReflectiveWall};
  const grid::BoundaryFiller walls(walledLayout, spec);
  const DisjointBoxLayout twoBoxes = tiledLayout();
  const DisjointBoxLayout bigBox(ProblemDomain(Box::cube(64)), 64);
  const std::pair<const DisjointBoxLayout*, const grid::BoundaryFiller*>
      levels[] = {{&twoBoxes, nullptr},
                  {&walledLayout, &walls},
                  {&bigBox, nullptr}};
  for (const auto& [dbl, bc] : levels) {
    for (const Scheme scheme : kSchemes) {
      for (const LevelPolicy policy : core::kLevelPolicies) {
        LevelData u = initialState(*dbl);
        core::StepExecOptions opts;
        opts.policy = policy;
        core::StepGraphExecutor exec(tiledConfig(), 2, opts);
        core::StepRhsSpec rhs;
        rhs.boundary = bc;
        const TaskGraphModel m = exec.lowerModel(
            buildStepProgram(scheme, 0.01, 1, bc != nullptr), u, rhs);
        for (const analysis::GraphTask& t : m.tasks) {
          if (!t.exchangeOp) {
            continue;
          }
          ASSERT_EQ(t.writes.size(), 1u) << t.label;
          const analysis::TaskAccess& w = t.writes[0];
          const bool read = std::ranges::any_of(t.successors, [&](int s) {
            return std::ranges::any_of(
                m.tasks[static_cast<std::size_t>(s)].reads,
                [&](const analysis::TaskAccess& r) {
                  return r.slot == w.slot && r.box == w.box &&
                         r.region.intersects(w.region);
                });
          });
          EXPECT_TRUE(read) << m.name << (bc != nullptr ? " walls" : "")
                            << ": nothing reads " << t.label;
        }
        EXPECT_GT(exec.stats().exchangeOps, 0u) << m.name;
        if (bc != nullptr || scheme != Scheme::RK4) {
          continue;
        }
        if (policy == LevelPolicy::BoxParallel && dbl == &twoBoxes) {
          // 2 x 2 tiles per box: 4 pieces per x-face copy, 2 per y or z.
          EXPECT_EQ(exec.stats().exchangeOps, 2u * (2 * 4 + 4 * 2) * 4)
              << m.name;
        } else if (dbl == &bigBox && policy == LevelPolicy::BoxParallel) {
          std::map<std::string, int> pieces;
          for (const analysis::GraphTask& t : m.tasks) {
            if (t.exchangeOp) {
              ++pieces[sectorOf(t.label)];
            }
          }
          for (const char* x : {"sector[-1,0,0]", "sector[+1,0,0]"}) {
            EXPECT_EQ(pieces[x], 16 * 4) << m.name << " " << x;
          }
          for (const char* yz : {"sector[0,-1,0]", "sector[0,+1,0]",
                                 "sector[0,0,-1]", "sector[0,0,+1]"}) {
            EXPECT_EQ(pieces[yz], 4 * 4) << m.name << " " << yz;
          }
          EXPECT_EQ(exec.stats().exchangeOps, 48u * 4) << m.name;
        } else {
          EXPECT_EQ(exec.stats().exchangeOps, 6 * dbl->size() * 4) << m.name;
        }
      }
    }
  }
}

TEST(StepGraph, TiledInteriorsBitIdenticalAcrossFamiliesThreadsAndPitches) {
  // 1 x 40^3: 36-cell interiors cut 16 + 16 + 4 (a ragged last tile) in
  // y and z; 2 x 36^3: 32-cell interiors, 2 x 2 tiles per box.
  const DisjointBoxLayout levels[] = {
      DisjointBoxLayout(ProblemDomain(Box::cube(40)), 40), tiledLayout()};
  const Real dt = 0.002;
  for (const DisjointBoxLayout& dbl : levels) {
    for (const Pitch pitch : {Pitch::Padded, Pitch::Dense}) {
      for (const core::VariantConfig& cfg : core::representativeFamilies(8)) {
        for (const int threads : {1, 4}) {
          const LevelData ref =
              eagerReference(Scheme::RK4, dbl, cfg, dt, 1, threads, pitch);
          LevelData u = initialState(dbl, pitch);
          FluxDivRhs rhs(cfg, threads);
          TimeIntegrator integ(Scheme::RK4, dbl);
          integ.advance(u, dt, rhs);
          EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0)
              << cfg.name() << " / " << dbl.size() << " x "
              << dbl.boxSize()[0] << "^3 / "
              << caseName(Scheme::RK4, LevelPolicy::BoxParallel, threads)
              << " / " << (pitch == Pitch::Padded ? "padded" : "dense");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Halo gather: on a periodic level of one-tile boxes without BCs, each RHS
// task copies a run of x-neighbour boxes and the face pieces their stencil
// reads from outside the run into a per-thread ghosted buffer, so no
// exchange lowers to a task and the stage levels carry no ghost cells.
// ---------------------------------------------------------------------------

/// A level whose one-tile 8^3 boxes have reflective walls on x: one tile
/// per box, but a BC fill, so it keeps the exchange lowering.
struct WalledOneTile {
  DisjointBoxLayout dbl{
      ProblemDomain(Box::cube(16), std::array<bool, 3>{false, true, true}),
      8};
  grid::BoundaryFiller walls{dbl, [] {
                               grid::BoundarySpec spec;
                               spec.type[0] = {grid::BCType::ReflectiveWall,
                                               grid::BCType::ReflectiveWall};
                               return spec;
                             }()};
};

/// Eight 16^3 boxes: one logical tile each, as box16's level.
DisjointBoxLayout box16Layout() {
  return DisjointBoxLayout(ProblemDomain(Box::cube(32)), 16);
}

/// The stats of one capture of `scheme` over `dbl` under `policy`.
core::StepGraphStats captureStats(const DisjointBoxLayout& dbl,
                                  Scheme scheme, LevelPolicy policy,
                                  const grid::BoundaryFiller* bc = nullptr) {
  LevelData u(dbl, kNumComp, kNumGhost);
  core::StepExecOptions opts;
  opts.policy = policy;
  core::StepGraphExecutor exec(tiledConfig(), 2, opts);
  core::StepRhsSpec rhs;
  rhs.boundary = bc;
  (void)exec.preparePhases(
      buildStepProgram(scheme, 0.01, 1, bc != nullptr), u, rhs);
  return exec.stats();
}

/// A level, its boundary fill, and the gathering runs each RK4 stage
/// lowers on it (0: the level keeps the exchange lowering).
struct GatherLevel {
  DisjointBoxLayout dbl;
  const grid::BoundaryFiller* bc;
  std::size_t runs;
  const char* what;
};

/// A periodic domain of `domain` cells cut into boxes of `box` cells.
DisjointBoxLayout boxesOf(grid::IntVect domain, grid::IntVect box) {
  return DisjointBoxLayout(
      ProblemDomain(
          Box(grid::IntVect::zero(), domain - grid::IntVect::unit(1))),
      box);
}

TEST(StepGraph, HaloGatherIsBitIdenticalToEager) {
  // Two steps, so the second reads halos gathered from updated
  // neighbours; with dissipation, whose Laplacian reads the gathered
  // buffer too. The one-tile levels gather in runs of x-neighbours of at
  // most 64 cells; the multi-tile and the walled levels keep the
  // exchange lowering and must match as well.
  const WalledOneTile walled;
  const GatherLevel levels[] = {
      {smallLayout(), nullptr, 4, "2 x 2 x 2 boxes of 8^3: runs of 2"},
      {box16Layout(), nullptr, 4, "2 x 2 x 2 boxes of 16^3: runs of 2"},
      {boxesOf({160, 8, 8}, {80, 8, 8}), nullptr, 2,
       "two 80 x 8 x 8 boxes: runs of 1"},
      {boxesOf({64, 8, 8}, {8, 8, 8}), nullptr, 1,
       "a row of 8 boxes of 8^3: one run of 8 spanning x"},
      {boxesOf({72, 8, 8}, {8, 8, 8}), nullptr, 2,
       "a row of 9 boxes of 8^3: runs of 4 and 5"},
      {boxesOf({64, 16, 16}, {8, 16, 16}), nullptr, 1,
       "8 boxes of 8 x 16 x 16: one run of 8"},
      {tiledLayout(), nullptr, 0, "two 36^3 boxes (multi-tile)"},
      {walled.dbl, &walled.walls, 0, "walled 8^3 boxes"}};
  const Real dt = 0.004;
  const core::VariantConfig cfgs[] = {
      tiledConfig(),
      core::makeShiftFuse(core::ParallelGranularity::WithinBox,
                          core::ComponentLoop::Outside),
      core::makeShiftFuse(core::ParallelGranularity::WithinBox,
                          core::ComponentLoop::Inside)};
  for (const core::VariantConfig& cfg : cfgs) {
    for (const GatherLevel& level : levels) {
      if (level.runs == 0 && !(cfg == cfgs[0])) {
        continue; // the exchange lowering does not change with the family
      }
      for (const Scheme scheme : kSchemes) {
        for (const Real diss : {0.0, 0.05}) {
          LevelData ref = initialState(level.dbl);
          {
            FluxDivRhs rhs(cfg, 3, 1.0, level.bc, diss);
            TimeIntegrator integ(scheme, level.dbl);
            for (int step = 0; step < 2; ++step) {
              integ.advanceEager(ref, dt, rhs);
            }
          }
          for (const LevelPolicy policy : core::kLevelPolicies) {
            const std::string what = caseName(scheme, policy, 3) + " " +
                                     cfg.name() + " on " + level.what +
                                     ", dissipation " +
                                     (diss == 0.0 ? "0" : "0.05");
            LevelData u = initialState(level.dbl);
            FluxDivRhs rhs(cfg, 3, 1.0, level.bc, diss);
            TimeIntegrator integ(scheme, level.dbl);
            integ.setLevelPolicy(policy);
            for (int step = 0; step < 2; ++step) {
              integ.advance(u, dt, rhs);
            }
            EXPECT_EQ(bitwiseMismatch(ref, u), "") << what;
            // Box-parallel RK4 lowers one task per run and stage: its
            // combines all ride in the RHS tasks and k stays off the
            // level.
            if (scheme == Scheme::RK4 && policy == LevelPolicy::BoxParallel &&
                level.runs > 0) {
              ASSERT_NE(integ.stepStats(), nullptr) << what;
              EXPECT_EQ(integ.stepStats()->taskCount, 4 * level.runs)
                  << what;
              EXPECT_EQ(integ.stepStats()->exchangeOps, 0u) << what;
            }
          }
        }
      }
    }
  }
}

TEST(StepGraph, HaloGatherReplacesExchanges) {
  // One-tile periodic boxes lower no exchange op and allocate their stage
  // levels without ghosts; multi-tile boxes and walled levels keep both.
  const WalledOneTile walled;
  for (const Scheme scheme : kSchemes) {
    for (const LevelPolicy policy : core::kLevelPolicies) {
      const std::string what = caseName(scheme, policy, 2);
      for (const DisjointBoxLayout& dbl : {smallLayout(), box16Layout()}) {
        const core::StepGraphStats one = captureStats(dbl, scheme, policy);
        EXPECT_EQ(one.exchangeOps, 0u) << what << " " << dbl.boxSize()[0];
        EXPECT_EQ(one.stageGhosts, 0) << what << " " << dbl.boxSize()[0];
      }
      const core::StepGraphStats tiled =
          captureStats(tiledLayout(), scheme, policy);
      EXPECT_GT(tiled.exchangeOps, 0u) << what << " multi-tile";
      const core::StepGraphStats walls =
          captureStats(walled.dbl, scheme, policy, &walled.walls);
      EXPECT_GT(walls.exchangeOps, 0u) << what << " walled";
      // Euler's one stage level is k, which no RHS reads.
      EXPECT_EQ(walls.stageGhosts,
                scheme == Scheme::ForwardEuler ? 0 : kNumGhost)
          << what << " walled";
    }
  }
}

TEST(StepGraph, Box16LevelLowersOneTaskPerRunAndStage) {
  // RK4 on 8 x 8 x 8 boxes of 16^3: each row of 8 boxes along x is two
  // gathering runs of 64 cells, and a run's RHS task runs the stage's
  // combines too: 128 runs x 4 stages = 512 tasks, where one task per box
  // and stage made 2,048 (and 15,360 edges), and the exchange lowering
  // 14,336 (36,864 edges).
  const DisjointBoxLayout dbl(ProblemDomain(Box::cube(128)), 16);
  ASSERT_EQ(dbl.size(), 512u);
  const core::StepGraphStats st =
      captureStats(dbl, Scheme::RK4, LevelPolicy::BoxParallel);
  EXPECT_EQ(st.taskCount, 512u);
  EXPECT_EQ(st.exchangeOps, 0u);
  EXPECT_EQ(st.edgeCount, 3328u);
}

// ---------------------------------------------------------------------------
// Graph verification: every lowered model must pass checkTaskGraph before
// first execution, and the stats must reflect the capture.
// ---------------------------------------------------------------------------

TEST(StepGraph, LoweredModelsPassGraphcheck) {
  // Every scheme and policy captures exactly one graph — phase 0 of the
  // submission API, any other index a caller error — and that graph is
  // race-free.
  const auto dbl = smallLayout();
  const auto cfg = tiledConfig();
  for (const Scheme scheme : kSchemes) {
    const core::StepProgram prog = buildStepProgram(scheme, 0.01);
    for (const LevelPolicy policy : core::kLevelPolicies) {
      LevelData u = initialState(dbl);
      core::StepExecOptions opts;
      opts.policy = policy;
      core::StepGraphExecutor exec(cfg, 2, opts);
      const std::string what = caseName(scheme, policy, 2);
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

#ifdef FLUXDIV_VERIFY
TEST(StepGraph, UnsoundProgramFailsOnEveryExecutor) {
  // The step gate proves each program shape once per process; a shape
  // that failed must fail again for the next executor instead of passing
  // as proven. The RHS reads slot 1, whose ghost frame is exchanged but
  // whose valid region nothing writes, so only the step gate sees it.
  core::StepProgram prog;
  prog.nSlots = 3;
  prog.rhsEvals = 1;
  prog.slotNames = {"u", "k1", "k2"};
  prog.exchange(0);
  prog.exchange(1);
  prog.rhs(1, 2);
  prog.axpy(0, 2, 0.01);
  for (int use = 0; use < 2; ++use) {
    LevelData u = initialState(smallLayout());
    core::StepGraphExecutor exec(
        core::makeShiftFuse(core::ParallelGranularity::OverBoxes), 2);
    EXPECT_THROW(exec.run(prog, u, {}), std::logic_error)
        << "executor " << use;
  }
}
#endif

TEST(StepGraph, CapturedEdgesGrowLinearlyWithSteps) {
  // A write drops the parts of earlier dependence-log entries it covers,
  // so every captured step after the first adds the same edges. Without
  // that, each task would carry an edge to every conflicting access of all
  // earlier stages and the edge count would grow quadratically.
  const auto dbl = smallLayout();
  const auto edgesOf = [&](int steps) {
    LevelData u = initialState(dbl);
    core::StepGraphExecutor exec(tiledConfig(), 2);
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
  // Multi-tile boxes: the capture lowers exchange copies into ghosted
  // stage levels.
  const auto dbl = tiledLayout();
  const auto cfg = tiledConfig();
  const core::StepProgram prog = buildStepProgram(Scheme::RK4, 0.01);
  LevelData u = initialState(dbl);

  core::StepGraphExecutor exec(cfg, 2);
  exec.run(prog, u, {});
  const core::StepGraphStats stats = exec.stats();
  EXPECT_EQ(stats.fuse, StepFuse::Fused);
  EXPECT_EQ(stats.graphCount, 1u);
  EXPECT_EQ(stats.exchangeDepth, kNumGhost);
  EXPECT_GT(stats.taskCount, 0u);
  EXPECT_GT(stats.edgeCount, stats.taskCount)
      << "cross-stage fusion must carry more dependencies than tasks";
  EXPECT_GT(stats.exchangeOps, 0u);
  EXPECT_EQ(stats.stageGhosts, kNumGhost);
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
  // Multi-tile boxes lower exchange copies, one-tile boxes gather their
  // halos: there every edge joins two RHS tasks of successive stages.
  for (const DisjointBoxLayout& dbl : {tiledLayout(), smallLayout()}) {
    LevelData u = initialState(dbl);
    core::StepGraphExecutor exec(tiledConfig(), 2);
    const TaskGraphModel m =
        exec.lowerModel(buildStepProgram(Scheme::RK4, 0.01), u, {});
    const bool gather = exec.stats().exchangeOps == 0;

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
    if (!gather) {
      EXPECT_GE(crossOp, 1)
          << "at least one dropped edge must cross an op-kind boundary "
          << "(a cross-stage dependency)";
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded mutation: shaving the outermost ghost layer off one exchange copy
// of a real multi-stage graph must be rejected by graphcheck's coverage
// rule (G3), naming the starved reader and the exchange.
// ---------------------------------------------------------------------------

TEST(StepGraph, ShavedGhostLayersAreCaught) {
  // Multi-tile boxes, so the graph lowers its exchanges.
  const auto dbl = tiledLayout();
  for (const Scheme scheme : kSchemes) {
    LevelData u = initialState(dbl);
    core::StepExecOptions opts;
    opts.policy = LevelPolicy::BoxParallel;
    core::StepGraphExecutor exec(tiledConfig(), 2, opts);
    const TaskGraphModel m =
        exec.lowerModel(buildStepProgram(scheme, 0.01), u, {});

    // A prime stride walks the candidate list (ordered by task, so by
    // exchange) well past the solution's first exchange.
    int caught = 0;
    int stageTemp = 0;
    for (std::uint64_t seed = 0; seed < 40 * 101; seed += 101) {
      const analysis::mutate::GraphMutation mut =
          analysis::mutate::shrinkGhostWrite(m, seed);
      ASSERT_EQ(mut.expect, DiagnosticKind::ReadUncovered)
          << schemeName(scheme) << " seed " << seed << ": " << mut.what;
      const GraphCheckReport rep = analysis::checkTaskGraph(mut.model);
      ASSERT_FALSE(rep.ok()) << schemeName(scheme) << " seed " << seed
                             << ": " << mut.what << " was accepted";
      EXPECT_TRUE(reported(rep, mut.expect, m.label(mut.taskA),
                           m.label(mut.taskB)))
          << schemeName(scheme) << " seed " << seed << ": " << mut.what
          << "\n  first diagnostic: " << rep.diagnostics[0].message();
      ++caught;
      const auto& shaved = m.tasks[static_cast<std::size_t>(mut.taskB)];
      stageTemp += !shaved.writes.empty() && shaved.writes[0].slot >= 1;
    }
    EXPECT_EQ(caught, 40) << schemeName(scheme);
    if (scheme == Scheme::RK4 || scheme == Scheme::SSPRK3) {
      EXPECT_GE(stageTemp, 1)
          << schemeName(scheme)
          << ": some shaved exchange must fill a stage temporary";
    }
  }
}

TEST(StepGraph, ShavedGatherPiecesAreCaught) {
  // One-tile boxes gather their halos in runs along x: shaving the
  // outermost layer off any gathered piece of a real multi-stage graph
  // must be rejected by G3, naming the gathering task as reader and
  // filler. That holds for the x-face pieces a run task copies at its
  // ends and for the x faces between its boxes, which it never copies but
  // which the model still lists per box. Every candidate shave is tried:
  // the graphs have fewer than 256.
  for (const DisjointBoxLayout& dbl :
       {smallLayout(), boxesOf({72, 8, 8}, {8, 8, 8})}) {
    for (const Scheme scheme : kSchemes) {
      const std::string what = std::string(schemeName(scheme)) + " on " +
                               std::to_string(dbl.size()) + " boxes";
      LevelData u = initialState(dbl);
      core::StepGraphExecutor exec(tiledConfig(), 2);
      const TaskGraphModel m =
          exec.lowerModel(buildStepProgram(scheme, 0.01), u, {});
      ASSERT_EQ(exec.stats().exchangeOps, 0u) << what;
      int runEnds = 0;
      int between = 0;
      for (std::uint64_t seed = 0; seed < 256; ++seed) {
        const analysis::mutate::GraphMutation mut =
            analysis::mutate::shrinkGhostWrite(m, seed);
        ASSERT_EQ(mut.expect, DiagnosticKind::ReadUncovered)
            << what << " seed " << seed << ": " << mut.what;
        ASSERT_EQ(mut.taskA, mut.taskB) << mut.what;
        const GraphCheckReport rep = analysis::checkTaskGraph(mut.model);
        ASSERT_FALSE(rep.ok()) << what << " seed " << seed << ": "
                               << mut.what << " was accepted";
        EXPECT_TRUE(reported(rep, mut.expect, m.label(mut.taskA),
                             m.label(mut.taskB)))
            << what << " seed " << seed << ": " << mut.what
            << "\n  first diagnostic: " << rep.diagnostics[0].message();
        // Where the shaved piece lies relative to its task's run (the
        // hull of the boxes the task gathers for).
        const auto task = static_cast<std::size_t>(mut.taskB);
        const auto& pieces = m.tasks[task].gathers;
        grid::IntVect lo = m.validBoxes[pieces[0].box].lo();
        grid::IntVect hi = m.validBoxes[pieces[0].box].hi();
        for (const analysis::TaskAccess& g : pieces) {
          for (int d = 0; d < grid::SpaceDim; ++d) {
            lo[d] = std::min(lo[d], m.validBoxes[g.box].lo(d));
            hi[d] = std::max(hi[d], m.validBoxes[g.box].hi(d));
          }
        }
        const Box run(lo, hi);
        for (std::size_t i = 0; i < pieces.size(); ++i) {
          const Box& piece = pieces[i].region;
          if (mut.model.tasks[task].gathers[i].region == piece) {
            continue;
          }
          if (piece.hi(0) < run.lo(0) || piece.lo(0) > run.hi(0)) {
            ++runEnds;
          } else if (run.contains(piece)) {
            ++between;
          }
        }
      }
      EXPECT_GT(runEnds, 0) << what << ": no shaved piece at a run end";
      EXPECT_GT(between, 0) << what << ": no shaved face between boxes";
    }
  }
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
  EXPECT_TRUE(core::parseStepFuse("eager", parsed));
  EXPECT_EQ(parsed, StepFuse::Eager);
  for (const char* removed : {"staged", "commavoid", "comm-avoiding"}) {
    EXPECT_FALSE(core::parseStepFuse(removed, parsed))
        << "the removed mode '" << removed << "' is an unknown name";
  }
  EXPECT_EQ(parsed, StepFuse::Eager) << "untouched on failure";
  EXPECT_FALSE(core::parseStepFuse("nope", parsed));
  core::LevelPolicy policy = LevelPolicy::BoxSequential;
  EXPECT_FALSE(core::parseLevelPolicy("warp-drive", policy));
  EXPECT_EQ(policy, LevelPolicy::BoxSequential) << "untouched on failure";
}

} // namespace
} // namespace fluxdiv::solvers
