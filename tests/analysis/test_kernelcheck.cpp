// Tests of the kernel footprint contract checker (analysis/kernelcheck).
// Four layers: every shipped kernel shape — scalar and pencil stage
// drivers, the reference pipelines, a variant executor — must prove
// sound (K1) and tight (K2); hand-written buggy kernels must be rejected
// with the precise witness offset (undeclared reads and writes,
// non-affine absolute indexing, an undeclared accumulate); the seeded
// kernel miscompilations of analysis/mutate must each be caught with
// their predicted witness; and the RHS tasks of lowered step graphs must
// agree with the proven hulls (K3), with a shrunk read footprint rejected
// as ContractMismatch. KernelCheckSweep runs all four layers' checks over
// every shape at probe boxes 8, 16 and 32.

#include "analysis/kernelcheck.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/graphcheck.hpp"
#include "analysis/mutate.hpp"
#include "core/kernelshapes.hpp"
#include "core/stepgraph.hpp"
#include "core/variant.hpp"
#include "grid/box.hpp"
#include "grid/leveldata.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/footprint.hpp"
#include "kernels/init.hpp"
#include "solvers/integrator.hpp"

namespace fluxdiv::analysis {
namespace {

using grid::Box;
using grid::DisjointBoxLayout;
using grid::FArrayBox;
using grid::IntVect;
using grid::LevelData;
using grid::Pitch;
using grid::ProblemDomain;
using grid::Real;
using kernels::Stage;

/// Small exhaustive probe: every input slot perturbed, both pitches'
/// defaults otherwise.
ProbeOptions smallProbe() {
  ProbeOptions opts;
  opts.boxSize = 5;
  return opts;
}

bool hasDiag(const std::vector<KernelDiag>& diags, KernelDiagKind kind,
             const std::string& role, const IntVect& offset) {
  for (const KernelDiag& d : diags) {
    if (d.kind == kind && d.role == role && d.offset == offset) {
      return true;
    }
  }
  return false;
}

std::string diagDump(const std::vector<KernelDiag>& diags) {
  std::string out;
  for (const KernelDiag& d : diags) {
    out += "  " + d.message() + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// K1 + K2 over the shipped kernels.
// ---------------------------------------------------------------------------

TEST(KernelCheck, StageDriversSoundAndTight) {
  for (const KernelShape& shape : builtinStageShapes()) {
    const KernelCheckReport rep =
        checkKernelFootprints(inferFootprint(shape, smallProbe()));
    EXPECT_TRUE(rep.ok()) << shape.name << " diagnostics:\n"
                          << diagDump(rep.diagnostics);
    EXPECT_TRUE(rep.advisories.empty())
        << shape.name << " advisories:\n" << diagDump(rep.advisories);
    EXPECT_GT(rep.rolesChecked, 0);
    EXPECT_GT(rep.probes, 0);
  }
}

TEST(KernelCheck, ReferencePipelinesSoundAndTight) {
  for (const KernelShape& shape : builtinPipelineShapes()) {
    const KernelCheckReport rep =
        checkKernelFootprints(inferFootprint(shape, smallProbe()));
    EXPECT_TRUE(rep.ok()) << shape.name << " diagnostics:\n"
                          << diagDump(rep.diagnostics);
    EXPECT_TRUE(rep.advisories.empty())
        << shape.name << " advisories:\n" << diagDump(rep.advisories);
    // 5 x 5 component roles plus velocity attribution components, and the
    // full 13-point plus-shape on the diagonal roles.
    EXPECT_EQ(rep.rolesChecked, kernels::kNumComp * kernels::kNumComp + 2);
  }
}

TEST(KernelCheck, VariantExecutorSoundAndTight) {
  // One executor smoke check at a small box (KernelCheckSweep probes all
  // five families at boxes 8-32): the blocked wavefront runs tiles
  // through carry-slot pencils, the code path most unlike the reference
  // sweep.
  const KernelShape shape = core::makeVariantShape(
      core::makeBlockedWF(2, core::ParallelGranularity::WithinBox,
                          core::ComponentLoop::Outside),
      /*nThreads=*/2);
  ProbeOptions opts = smallProbe();
  opts.boxSize = 6;
  opts.exhaustiveSlotLimit = 0; // force the structured sample
  opts.sampleTarget = 400;
  const KernelCheckReport rep =
      checkKernelFootprints(inferFootprint(shape, opts));
  EXPECT_TRUE(rep.ok()) << diagDump(rep.diagnostics);
  EXPECT_TRUE(rep.advisories.empty()) << diagDump(rep.advisories);
}

TEST(KernelCheck, CrossSizeAndPitchAgreement) {
  // The affine lift: the same offsets at every size and pitch.
  for (const KernelShape& shape : builtinStageShapes()) {
    if (shape.name.find("pencil:FusedCell") == std::string::npos) {
      continue;
    }
    const KernelFootprintModel m = inferFootprintAcross(
        shape, {4, 6}, {Pitch::Padded, Pitch::Dense}, smallProbe());
    EXPECT_TRUE(checkKernelFootprints(m).ok());
  }
}

// ---------------------------------------------------------------------------
// Hand-written buggy kernels: each rejected with the precise witness.
// ---------------------------------------------------------------------------

KernelShape pointwiseShape(const char* name, KernelFn fn) {
  KernelShape s;
  s.name = name;
  s.stage = Stage::EvalFlux2; // declared pointwise
  s.dir = 0;
  s.inComps = 1;
  s.outComps = 1;
  s.outputDep = OutputDep::Overwrite;
  s.faceOutput = false;
  s.fn = std::move(fn);
  return s;
}

TEST(KernelCheck, UndeclaredReadCaught) {
  // Declared pointwise, actually reads the +x neighbor too.
  const KernelShape shape = pointwiseShape(
      "buggy:wide-read",
      [](const FArrayBox& in, FArrayBox& out, const Box& cells, Real) {
        for (int k = cells.lo(2); k <= cells.hi(2); ++k) {
          for (int j = cells.lo(1); j <= cells.hi(1); ++j) {
            for (int i = cells.lo(0); i <= cells.hi(0); ++i) {
              out.dataPtr(0)[out.offset(i, j, k)] =
                  in.dataPtr(0)[in.offset(i, j, k)] +
                  in.dataPtr(0)[in.offset(i + 1, j, k)];
            }
          }
        }
      });
  const KernelCheckReport rep =
      checkKernelFootprints(inferFootprint(shape, smallProbe()));
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(hasDiag(rep.diagnostics, KernelDiagKind::UndeclaredRead,
                      "read c0->c0", IntVect{1, 0, 0}))
      << diagDump(rep.diagnostics);
}

TEST(KernelCheck, UndeclaredWriteCaught) {
  // Declared pointwise writes, actually scatters into the +y neighbor.
  const KernelShape shape = pointwiseShape(
      "buggy:scatter-write",
      [](const FArrayBox& in, FArrayBox& out, const Box& cells, Real) {
        for (int k = cells.lo(2); k <= cells.hi(2); ++k) {
          for (int j = cells.lo(1); j <= cells.hi(1); ++j) {
            for (int i = cells.lo(0); i <= cells.hi(0); ++i) {
              const Real v = in.dataPtr(0)[in.offset(i, j, k)];
              out.dataPtr(0)[out.offset(i, j, k)] = v;
              out.dataPtr(0)[out.offset(i, j + 1, k)] = v;
            }
          }
        }
      });
  const KernelCheckReport rep =
      checkKernelFootprints(inferFootprint(shape, smallProbe()));
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(hasDiag(rep.diagnostics, KernelDiagKind::UndeclaredWrite,
                      "write", IntVect{0, 1, 0}))
      << diagDump(rep.diagnostics);
}

TEST(KernelCheck, NonAffineAbsoluteIndexCaught) {
  // Every output cell reads one fixed absolute cell — not an offset
  // stencil, so no single offset holds at every output cell.
  const KernelShape shape = pointwiseShape(
      "buggy:absolute-index",
      [](const FArrayBox& in, FArrayBox& out, const Box& cells, Real) {
        const Real anchor =
            in.dataPtr(0)[in.offset(cells.lo(0), cells.lo(1), cells.lo(2))];
        for (int k = cells.lo(2); k <= cells.hi(2); ++k) {
          for (int j = cells.lo(1); j <= cells.hi(1); ++j) {
            for (int i = cells.lo(0); i <= cells.hi(0); ++i) {
              out.dataPtr(0)[out.offset(i, j, k)] =
                  in.dataPtr(0)[in.offset(i, j, k)] + anchor;
            }
          }
        }
      });
  const KernelCheckReport rep =
      checkKernelFootprints(inferFootprint(shape, smallProbe()));
  EXPECT_FALSE(rep.ok());
  bool nonAffine = false;
  for (const KernelDiag& d : rep.diagnostics) {
    nonAffine |= d.kind == KernelDiagKind::NonAffineAccess;
  }
  EXPECT_TRUE(nonAffine) << diagDump(rep.diagnostics);
}

TEST(KernelCheck, UndeclaredAccumulateCaught) {
  // Declared Overwrite, actually accumulates: the output's prior
  // contents reach the result, an undeclared self-dependence.
  const KernelShape shape = pointwiseShape(
      "buggy:accumulate",
      [](const FArrayBox& in, FArrayBox& out, const Box& cells, Real) {
        for (int k = cells.lo(2); k <= cells.hi(2); ++k) {
          for (int j = cells.lo(1); j <= cells.hi(1); ++j) {
            for (int i = cells.lo(0); i <= cells.hi(0); ++i) {
              out.dataPtr(0)[out.offset(i, j, k)] +=
                  in.dataPtr(0)[in.offset(i, j, k)];
            }
          }
        }
      });
  const KernelCheckReport rep =
      checkKernelFootprints(inferFootprint(shape, smallProbe()));
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(hasDiag(rep.diagnostics, KernelDiagKind::UndeclaredRead,
                      "output", IntVect::zero()))
      << diagDump(rep.diagnostics);
}

// ---------------------------------------------------------------------------
// K2 fixture: a widened declared set must yield an Overdeclared advisory
// (and an OverdeclaredFootprint cost note), not a soundness failure.
// ---------------------------------------------------------------------------

TEST(KernelCheck, WidenedDeclaredSetIsOverdeclared) {
  KernelShape fused;
  for (KernelShape& shape : builtinStageShapes()) {
    if (shape.name == "scalar:FusedCell[d=x]") {
      fused = std::move(shape);
    }
  }
  ASSERT_FALSE(fused.name.empty());
  KernelFootprintModel m = inferFootprint(fused, smallProbe());
  // Simulate fusedCellReadOffsets widened to +/-3 without touching the
  // kernel: the extra offset is declared but never read.
  const IntVect extra{3, 0, 0};
  ASSERT_FALSE(m.reads.empty());
  m.reads.front().declared.push_back(extra);
  const KernelCheckReport rep = checkKernelFootprints(m);
  EXPECT_TRUE(rep.ok()) << diagDump(rep.diagnostics);
  EXPECT_TRUE(hasDiag(rep.advisories, KernelDiagKind::Overdeclared,
                      m.reads.front().role, extra))
      << diagDump(rep.advisories);

  const std::vector<CostNote> notes = overdeclaredNotes(rep);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes.front().kind, CostNoteKind::OverdeclaredFootprint);
  EXPECT_EQ(notes.front().where, fused.name);
  EXPECT_EQ(static_cast<int>(notes.front().actualBytes), 1);
}

// ---------------------------------------------------------------------------
// Seeded miscompilations: each caught with its predicted witness.
// ---------------------------------------------------------------------------

/// Runs the three seeded kernel miscompilations of `m` at seeds
/// [0, nSeeds); returns how many had a candidate and were checked.
int expectMutationsCaught(const KernelFootprintModel& m,
                          std::uint64_t nSeeds) {
  int executed = 0;
  for (std::uint64_t seed = 0; seed < nSeeds; ++seed) {
    const mutate::KernelMutation muts[] = {
        mutate::widenKernelRead(m, seed),
        mutate::shiftKernelStencil(m, seed),
        mutate::forgetDeclaredOffset(m, seed),
    };
    for (const mutate::KernelMutation& mut : muts) {
      EXPECT_NE(mut.expect, KernelDiagKind::Ok)
          << m.kernel << " offered no candidate: " << mut.what;
      if (mut.expect == KernelDiagKind::Ok) {
        continue;
      }
      ++executed;
      const KernelCheckReport rep = checkKernelFootprints(mut.model);
      EXPECT_TRUE(hasDiag(rep.diagnostics, mut.expect, mut.role,
                          mut.offset))
          << mut.what << "\n" << diagDump(rep.diagnostics);
      if (mut.expectAlso != KernelDiagKind::Ok) {
        bool also = false;
        for (const KernelDiag& d : rep.advisories) {
          also |= d.kind == mut.expectAlso && d.role == mut.role;
        }
        EXPECT_TRUE(also) << mut.what << "\n" << diagDump(rep.advisories);
      }
    }
  }
  return executed;
}

TEST(KernelCheck, SeededMutationsCaught) {
  std::vector<KernelFootprintModel> models;
  for (const KernelShape& shape : builtinStageShapes()) {
    if (shape.name == "pencil:FusedCell[d=y]" ||
        shape.name == "scalar:EvalFlux1[d=z]") {
      models.push_back(inferFootprint(shape, smallProbe()));
    }
  }
  ASSERT_EQ(models.size(), 2u);

  int executed = 0;
  for (const KernelFootprintModel& m : models) {
    executed += expectMutationsCaught(m, 4);
  }
  EXPECT_EQ(executed, 2 * 4 * 3);
}

// ---------------------------------------------------------------------------
// K3: lowered task graphs against the proven hulls.
// ---------------------------------------------------------------------------

/// One forward-Euler step (exchange, RHS evaluation, axpy) over two 8^3
/// boxes, lowered through the step-graph executor.
TaskGraphModel lowerSmallGraph(core::LevelPolicy policy) {
  const int boxSize = 8;
  const ProblemDomain dom(
      Box(IntVect::zero(), IntVect{2 * boxSize - 1, boxSize - 1,
                                   boxSize - 1}));
  const DisjointBoxLayout dbl(dom, boxSize);
  core::StepExecOptions opts;
  opts.policy = policy;
  core::StepGraphExecutor exec(
      core::makeBaseline(core::ParallelGranularity::WithinBox), 2, opts);
  LevelData u(dbl, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(u);
  return exec.lowerModel(
      solvers::buildStepProgram(solvers::Scheme::ForwardEuler, 1e-3), u,
      {});
}

TEST(KernelCheck, GraphFootprintsAgreeWithDeclared) {
  for (const core::LevelPolicy policy : core::kLevelPolicies) {
    const std::vector<KernelDiag> diags =
        checkGraphFootprints(lowerSmallGraph(policy), declaredFootprints());
    EXPECT_TRUE(diags.empty()) << diagDump(diags);
  }
}

TEST(KernelCheck, GraphFootprintsAgreeWithProven) {
  // The hulls proven by actual probing, not the declared contract.
  const ProvenFootprints proven = extractProven(
      {inferFootprint(builtinPipelineShapes().front(), smallProbe())});
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(proven.fused[d], kernels::fusedCellReadOffsets(d));
  }
  const std::vector<KernelDiag> diags = checkGraphFootprints(
      lowerSmallGraph(core::LevelPolicy::BoxParallel), proven);
  EXPECT_TRUE(diags.empty()) << diagDump(diags);
}

TEST(KernelCheck, ShrunkGraphReadIsContractMismatch) {
  TaskGraphModel model = lowerSmallGraph(core::LevelPolicy::BoxParallel);
  // Shrink every source-slot read of the first RHS task below the stencil
  // reach: its declared footprint no longer covers the proven one.
  bool shrunk = false;
  for (GraphTask& t : model.tasks) {
    if (t.rhsSourceSlot < 0) {
      continue;
    }
    for (TaskAccess& r : t.reads) {
      if (r.slot == t.rhsSourceSlot) {
        r.region = Box(r.region.lo() + IntVect{2, 0, 0},
                       r.region.hi() - IntVect{2, 0, 0});
        shrunk = true;
      }
    }
    if (shrunk) {
      break;
    }
  }
  ASSERT_TRUE(shrunk);
  const std::vector<KernelDiag> diags =
      checkGraphFootprints(model, declaredFootprints());
  bool mismatch = false;
  for (const KernelDiag& d : diags) {
    mismatch |= d.kind == KernelDiagKind::ContractMismatch;
  }
  EXPECT_TRUE(mismatch) << diagDump(diags);
}

// ---------------------------------------------------------------------------
// Small pieces.
// ---------------------------------------------------------------------------

TEST(KernelCheck, StageTags) {
  EXPECT_EQ(kernelStageTag(Stage::EvalFlux1, 1), "EvalFlux1[d=y]");
  EXPECT_EQ(kernelStageTag(Stage::FusedCell, -1), "FusedCell[pipeline]");
}

TEST(KernelCheck, BuiltinShapeInventory) {
  // 4 stages x 3 directions x {scalar, pencil} + 2 reference pipelines.
  EXPECT_EQ(builtinStageShapes().size(), 24u);
  EXPECT_EQ(builtinPipelineShapes().size(), 2u);
  EXPECT_EQ(builtinShapes().size(), 26u);
}

// ---------------------------------------------------------------------------
// Full sweep: every shipped shape (26 stage/pipeline shapes plus the five
// representative variant executors) at probe boxes 8, 16 and 32, one
// ctest entry per (shape, box). Each must prove sound and tight over
// padded and dense rows; the dense probe must observe exactly the padded
// probe's offsets (pad lanes absent, offsets must not move), or
// inferFootprintAcross reports NonAffineAccess. Every seeded
// miscompilation of it must be caught, and every hull it proves must
// agree with the RHS tasks of the lowered step graphs (K3).
// ---------------------------------------------------------------------------

struct ProbeCase {
  std::size_t shape;
  int boxSize;
};

std::vector<KernelShape> sweptShapes() {
  std::vector<KernelShape> shapes = builtinShapes();
  for (KernelShape& s : core::variantShapes(/*nThreads=*/4, /*tile=*/4)) {
    shapes.push_back(std::move(s));
  }
  return shapes;
}

/// The RHS-task footprints of one forward-Euler step, for the five
/// families at tile 4 under the parallel policy, checked against
/// `proven`: over 2^3 boxes of side `boxSize`, and over one periodic 24^3
/// box whose 20-cell interior spans two logical tiles in y and z.
std::vector<KernelDiag> checkLoweredGraphs(const ProvenFootprints& proven,
                                           int boxSize) {
  const core::StepProgram prog =
      solvers::buildStepProgram(solvers::Scheme::ForwardEuler, 1e-3);
  std::vector<KernelDiag> diags;
  for (const auto& [domainSide, boxSide] :
       {std::pair{2 * boxSize, boxSize}, std::pair{24, 24}}) {
    const DisjointBoxLayout dbl(ProblemDomain(Box::cube(domainSide)),
                                boxSide);
    LevelData u(dbl, kernels::kNumComp, kernels::kNumGhost);
    kernels::initializeExemplar(u);
    for (const core::VariantConfig& cfg : core::representativeFamilies(4)) {
      core::StepGraphExecutor exec(cfg, 4, core::StepExecOptions{});
      for (KernelDiag& d :
           checkGraphFootprints(exec.lowerModel(prog, u, {}), proven)) {
        diags.push_back(std::move(d));
      }
    }
  }
  return diags;
}

class KernelCheckSweep : public testing::TestWithParam<ProbeCase> {};

TEST_P(KernelCheckSweep, SoundTightAndMutationsCaught) {
  const KernelShape shape = sweptShapes().at(GetParam().shape);
  const int n = GetParam().boxSize;
  ProbeOptions opts;
  opts.boxSize = n;

  const KernelFootprintModel m = inferFootprintAcross(
      shape, {n}, {Pitch::Padded, Pitch::Dense}, opts);
  const KernelCheckReport rep = checkKernelFootprints(m);
  EXPECT_TRUE(rep.ok()) << diagDump(rep.diagnostics);
  EXPECT_TRUE(rep.advisories.empty()) << diagDump(rep.advisories);

  EXPECT_EQ(expectMutationsCaught(m, 5), 5 * 3);

  // K3 for the shapes whose hulls extractProven reads: the per-direction
  // fused stencils and the whole pipelines.
  if (m.dir < 0 || m.stage == Stage::FusedCell) {
    const std::vector<KernelDiag> diags =
        checkLoweredGraphs(extractProven({m}), n);
    EXPECT_TRUE(diags.empty()) << diagDump(diags);
  }
}

std::vector<ProbeCase> probeCases() {
  std::vector<ProbeCase> out;
  const std::size_t nShapes = sweptShapes().size();
  for (const int n : {8, 16, 32}) {
    for (std::size_t s = 0; s < nShapes; ++s) {
      out.push_back({s, n});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelCheckSweep, testing::ValuesIn(probeCases()),
    [](const testing::TestParamInfo<ProbeCase>& info) {
      std::string name = sweptShapes().at(info.param.shape).name;
      for (char& c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) {
          c = '_';
        }
      }
      return name + "_n" + std::to_string(info.param.boxSize);
    });

} // namespace
} // namespace fluxdiv::analysis
