#pragma once
// Kernel footprint contract checker (docs/static-analysis.md, "Kernel
// contract checking"). Every proof in this analysis layer — schedule
// legality (verifier.hpp), task-graph happens-before (graphcheck.hpp),
// exchange-plan exactness (commcheck.hpp), and the cost model's traffic
// predictions — derives from the hand-written offset boxes in
// kernels/footprint.hpp. If a kernel's arithmetic ever read outside its
// declared stencil, every downstream proof would be silently unsound.
// This pass closes the loop: it *infers* the actual access sets of the
// shipped kernels by executing them, and proves the declared contract
// sound and tight against the inference:
//
//   K1 (soundness)   every observed access lies inside the declared
//                    readOffsets/writeOffsets: violation =>
//                    UndeclaredRead / UndeclaredWrite with the offending
//                    offset, stage label, and a minimal repro box.
//   K2 (tightness)   every declared offset is actually exercised by the
//                    kernel: slack => an Overdeclared advisory (slack
//                    footprints inflate ghost depth, cost-model traffic,
//                    and commcheck message volume).
//   K3 (consistency) the footprints the task-graph models and the cost
//                    model consume agree with the ones proven here
//                    (checkGraphFootprints over a lowered TaskGraphModel).
//
// Inference is *differential*: the kernels read through raw pointers and
// strides (the paper's cached-offset idiom), so per-access interception
// at the FabIndexer chokepoint would tax the hot path the study measures.
// Instead the prober (grid/tracingfab.hpp) runs the real, unmodified
// kernel over small concrete boxes, perturbs one input slot at a time,
// and bitwise-diffs the output against a reference run: a changed output
// cell p after perturbing input slot u witnesses the dependence offset
// u - p. Probing covers ghost margins *and* the pitch-pad lanes, runs
// every perturbation twice with different deltas (so an exact arithmetic
// cancellation cannot hide a dependence), uses nonzero box origins (so
// absolute-index bugs cannot masquerade as offsets), and lifts the
// per-cell recordings to size-parametric offset sets by requiring the
// same offsets at every output cell, box size, and pitch — any
// non-uniform or size-dependent pattern is rejected as NonAffineAccess.
//
// What this observes is dataflow dependence, not raw loads: a read whose
// value provably never reaches the output (dead load) is invisible. For
// contract checking that is the right notion — the declared footprint
// exists to order writers before readers, and a value that cannot reach
// the output cannot be raced on observably.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/costmodel.hpp"
#include "grid/box.hpp"
#include "grid/farraybox.hpp"
#include "kernels/footprint.hpp"

namespace fluxdiv::analysis {

struct TaskGraphModel; // graphcheck.hpp

/// A kernel under contract: any callable producing `outRegion` of `out`
/// from `in` (the stage drivers of builtinShapes(), the reference
/// pipelines, or a variant executor via core/kernelshapes.hpp). `in`
/// covers at least outRegion grown by the ghost margin; `out` may cover
/// more than outRegion — writing outside outRegion is exactly what the
/// checker is looking for.
using KernelFn = std::function<void(
    const grid::FArrayBox& in, grid::FArrayBox& out,
    const grid::Box& outRegion, grid::Real scale)>;

/// Declared relationship between a kernel's output and its prior
/// contents.
enum class OutputDep : std::uint8_t {
  Overwrite,  ///< out = f(in): EvalFlux1/EvalFlux2 stage drivers
  Accumulate, ///< out += f(in): FluxDifference, fused sweeps, pipelines
};

/// One kernel shape to verify: the callable plus the declared contract it
/// must satisfy.
struct KernelShape {
  std::string name;          ///< e.g. "pencil:EvalFlux1[d=y]", "reference"
  kernels::Stage stage = kernels::Stage::FusedCell;
  int dir = 0;               ///< stencil direction; -1 = full pipeline
  int inComps = 1;
  int outComps = 1;
  OutputDep outputDep = OutputDep::Overwrite;
  bool faceOutput = false;   ///< out region is cells.faceBox(dir)
  KernelFn fn;
};

/// Diagnostic kinds of the contract checker, mirroring DiagnosticKind /
/// CommDiagKind: machine-readable kind + human message().
enum class KernelDiagKind : std::uint8_t {
  Ok,
  UndeclaredRead,   ///< K1: observed read outside declared readOffsets
  UndeclaredWrite,  ///< K1: write outside the declared write region
  Overdeclared,     ///< K2 advisory: declared offset never exercised
  NonAffineAccess,  ///< access pattern not a pure offset stencil
  ContractMismatch, ///< K3: a consumer's footprint disagrees with proof
};

/// One structured finding. `repro` is the minimal repro: re-running the
/// kernel with exactly this output region (inputs grown by the ghost
/// margin) reproduces the offending access.
struct KernelDiag {
  KernelDiagKind kind = KernelDiagKind::Ok;
  std::string kernel; ///< shape name
  std::string stage;  ///< canonical stage tag, e.g. "FusedCell[d=x]"
  std::string role;   ///< dependence role, e.g. "read c1->c0", "write"
  grid::IntVect offset;
  grid::Box repro;
  std::string detail;

  [[nodiscard]] bool ok() const { return kind == KernelDiagKind::Ok; }
  [[nodiscard]] std::string message() const;
};

/// One dependence role of one kernel: output component `outComp` against
/// input component `inComp` (or the output's own prior contents for the
/// output role, inComp == -1), with the declared and the inferred offset
/// sets (both sorted lexicographically).
struct RoleFootprint {
  std::string role;
  int outComp = 0;
  int inComp = 0;
  std::vector<grid::IntVect> declared;
  std::vector<grid::IntVect> observed;
  /// One witness output cell per observed offset (parallel to observed).
  std::vector<grid::IntVect> witnesses;
};

/// The inferred footprint model of one kernel shape — what mutate.cpp
/// miscompiles and checkKernelFootprints() proves against.
struct KernelFootprintModel {
  std::string kernel;
  kernels::Stage stage = kernels::Stage::FusedCell;
  int dir = -1;
  grid::Box probeRegion; ///< output region of the defining probe
  grid::Pitch pitch = grid::Pitch::Padded;
  std::vector<RoleFootprint> reads;
  RoleFootprint output; ///< dependence on the output's prior contents
  RoleFootprint writes; ///< offset 0 = in-region; others = overhang
  std::vector<KernelDiag> probeDiags; ///< pad accesses, non-affine, gaps
  std::int64_t probes = 0; ///< perturbation runs performed
};

/// Probe configuration. The defaults are the tool/test configuration;
/// the runner gate shrinks the box and forces sampling to stay cheap.
struct ProbeOptions {
  int boxSize = 8;
  /// Nonzero low corner of the output region, so absolute-index bugs
  /// cannot alias with relative offsets.
  grid::IntVect origin{5, -3, 9};
  grid::Pitch pitch = grid::Pitch::Padded;
  /// Perturbation trials per slot with distinct deltas: one exact
  /// cancellation cannot mask a dependence.
  int trials = 2;
  std::uint64_t seed = 1;
  grid::Real scale = 0.5;
  /// Probe every input slot while the input allocation holds at most
  /// this many; beyond it, use the structured sample (axis pencils,
  /// corner neighborhoods, seeded lattice, pad lanes — every declared
  /// offset still exercised). 0 forces sampling.
  std::int64_t exhaustiveSlotLimit = 25000;
  /// Approximate slot count of the structured sample.
  int sampleTarget = 1200;
};

/// Execute `shape` over concrete fabs and infer its footprint model
/// (declared sets filled from kernels/footprint.hpp).
KernelFootprintModel inferFootprint(const KernelShape& shape,
                                    const ProbeOptions& opts);

/// The size-parametric lift: infer at every size x pitch and require the
/// offset sets to agree exactly — a size- or pitch-dependent access is
/// not an affine stencil and is appended as NonAffineAccess. Returns the
/// first configuration's model carrying the merged diagnostics.
KernelFootprintModel inferFootprintAcross(const KernelShape& shape,
                                          const std::vector<int>& sizes,
                                          const std::vector<grid::Pitch>& pitches,
                                          ProbeOptions opts);

/// Result of one checkKernelFootprints() pass: `diagnostics` empty iff
/// K1 holds and nothing non-affine or mismatched was observed;
/// `advisories` carries the K2 tightness findings.
struct KernelCheckReport {
  std::string kernel;
  std::vector<KernelDiag> diagnostics;
  std::vector<KernelDiag> advisories;
  int rolesChecked = 0;
  int declaredOffsets = 0; ///< declared read offsets across all roles
  std::int64_t probes = 0;

  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
};

/// Prove K1 (observed within declared) and K2 (declared within observed)
/// for every role of `m`, folding in the probe-time diagnostics.
KernelCheckReport checkKernelFootprints(const KernelFootprintModel& m);

/// Per-direction fused-stencil hulls proven by inference, feeding K3.
struct ProvenFootprints {
  std::array<grid::Box, 3> fused;
};

/// The declared contract's hulls (the K3 baseline when no inference has
/// run — e.g. for tests exercising the graph check in isolation).
ProvenFootprints declaredFootprints();

/// Extract proven hulls from inferred models: pipeline and FusedCell
/// models set `fused`. Directions not covered by any model keep the
/// declared hulls.
ProvenFootprints extractProven(const std::vector<KernelFootprintModel>& models);

/// K3: prove the footprints a lowered step graph declares agree with the
/// proven ones. Every RHS task (GraphTask::rhsSourceSlot >= 0) must read
/// its source slot at least over its destination-slot write region grown
/// by the proven fused hull per direction — ContractMismatch names the
/// task and direction otherwise — and every source read must stay inside
/// the proven union hull, else an Overdeclared advisory.
std::vector<KernelDiag> checkGraphFootprints(const TaskGraphModel& m,
                                             const ProvenFootprints& proven);

/// Satellite of the advisor: lift K2 tightness advisories into cost
/// notes — a declared-but-never-read offset means the cost model and the
/// exchange plan price ghost cells no kernel touches.
std::vector<CostNote> overdeclaredNotes(const KernelCheckReport& rep);

/// Canonical stage tag of a (stage, dir) pair: "EvalFlux1[d=y]", or
/// "FusedCell[pipeline]" for whole-pipeline shapes (dir == -1).
std::string kernelStageTag(kernels::Stage stage, int dir);

/// The built-in shapes of the shipped kernels: scalar and pencil stage
/// drivers per stage x direction, plus the reference and naive
/// pipelines. Variant-executor shapes live in core/kernelshapes.hpp —
/// this library does not link the executors.
std::vector<KernelShape> builtinStageShapes();
std::vector<KernelShape> builtinPipelineShapes();
std::vector<KernelShape> builtinShapes();

} // namespace fluxdiv::analysis
