// Static schedule advisor: rank every registered scheduling variant for a
// box size / thread count by predicted DRAM traffic, recomputation volume
// and available parallelism — without executing a single kernel. The cache
// capacities default to the probed host hierarchy (harness/machine) and can
// be overridden to model the paper's nodes. Also prints the recommended
// blocked-wavefront tile size and every structured cost note (the
// "explanations" of docs/cost-model.md).
//
//   ./tools/fluxdiv_advisor [--boxsize 128] [--threads 8] [--extensions]
//                           [--l2 BYTES] [--llc BYTES] [--csv out.csv]
//                           [--strict] [--pad] [--nboxes 1] [--kernels]
//                           [--scheme rk4|all]
//
// --kernels additionally probes the shipped kernels differentially
// (analysis/kernelcheck) and reports any declared-but-never-read stencil
// offsets — overdeclared footprints mean the traffic model and the
// exchange plan price ghost cells no kernel touches.
//
// --scheme additionally proves that time scheme's recorded step program
// (or every scheme's with 'all') live (analysis/stepcheck: no op reads a
// never-written stage slot) and prints any dead-store note. With
// --strict, a read before write fails the run.
//
// --pad prices working sets for the default padded fab allocation (x-pitch
// rounded to grid::kSimdDoubles, docs/perf.md) instead of dense storage.
//
// --nboxes > 1 additionally ranks the level policies (sequential /
// parallel: the step graphs' task granularity, core/stepgraph) for a
// level of that many boxes, from the box- and tile-level concurrency each
// policy exposes. Every run notes removable edges in a lowered RK4 step:
// over up to 8 boxes of side min(N, 16), or over one box of side
// min(N, 64) when --nboxes is 1.
//
// --strict additionally runs internal consistency checks over every report
// (finite traffic, non-degenerate working sets, traffic not far below the
// compulsory floor) and exits nonzero if any fails — the CI guard that the
// cost model stays sane over the whole registry.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/advisor.hpp"
#include "analysis/graphcheck.hpp"
#include "analysis/kernelcheck.hpp"
#include "analysis/stepcheck.hpp"
#include "core/stepgraph.hpp"
#include "grid/leveldata.hpp"
#include "grid/real.hpp"
#include "harness/args.hpp"
#include "harness/csv.hpp"
#include "harness/machine.hpp"
#include "harness/table.hpp"
#include "kernels/exemplar.hpp"
#include "solvers/integrator.hpp"

using namespace fluxdiv;

namespace {

std::string fmtBytes(double b) {
  return harness::formatBytes(static_cast<std::size_t>(b));
}

/// Tool-level sanity checks on one report; append ModelError notes for any
/// violated invariant. Returns the number of failures.
int strictCheck(analysis::CostReport& rep) {
  int failures = 0;
  const auto fail = [&](const std::string& what, double actual,
                        double limit) {
    analysis::CostNote note;
    note.kind = analysis::CostNoteKind::ModelError;
    note.where = rep.variant + ": " + what;
    note.actualBytes = actual;
    note.limitBytes = limit;
    rep.notes.push_back(note);
    ++failures;
  };
  if (!std::isfinite(rep.trafficBytes) || rep.trafficBytes <= 0) {
    fail("non-finite or non-positive traffic", rep.trafficBytes, 0);
  }
  if (rep.workingSetBytes <= 0 || rep.maxItemBytes <= 0) {
    fail("degenerate working set", rep.workingSetBytes, 0);
  }
  // One cold evaluation can dip below the steady-state floor (the final
  // writeback stays cached), but never below half of it.
  if (rep.trafficBytes < 0.5 * rep.compulsoryBytes) {
    fail("traffic below half the compulsory floor", rep.trafficBytes,
         rep.compulsoryBytes);
  }
  if (rep.maxConcurrency < 1 || rep.barrierCount < 1) {
    fail("degenerate parallelism metrics",
         static_cast<double>(rep.maxConcurrency),
         static_cast<double>(rep.barrierCount));
  }
  return failures;
}

} // namespace

int main(int argc, char** argv) {
  harness::Args args;
  args.addInt("boxsize", 128, "box side N");
  args.addInt("threads", 8, "worker count the schedules are priced for");
  args.addBool("extensions", "include the beyond-paper variant axes");
  args.addInt("l2", 0, "L2 capacity in bytes (0 = probe this machine)");
  args.addInt("llc", 0, "LLC capacity in bytes (0 = probe this machine)");
  args.addString("csv", "", "also write the ranking table to this CSV file");
  args.addBool("strict",
               "fail (exit 1) on any internal model-consistency error");
  args.addBool("pad", "price working sets for the padded fab x-pitch");
  args.addInt("nboxes", 1,
              "boxes per level for the level-policy ranking (1 = skip)");
  args.addBool("kernels",
               "probe the shipped kernels and report overdeclared "
               "footprints (declared-but-never-read stencil offsets)");
  args.addString("scheme", "",
                 "whole-step notes for this time scheme "
                 "(euler/midpoint/ssprk3/rk4, or 'all')");
  try {
    if (!args.parse(argc, argv)) {
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  const int n = static_cast<int>(args.getInt("boxsize"));
  const int nThreads = static_cast<int>(args.getInt("threads"));
  if (n < 1 || nThreads < 1) {
    std::cerr << "error: --boxsize and --threads must be >= 1\n";
    return 1;
  }

  const harness::MachineInfo machine = harness::queryMachine();
  analysis::CacheSpec spec = analysis::CacheSpec::fromMachine(machine);
  if (args.getInt("l2") > 0) {
    spec.l2Bytes = static_cast<std::size_t>(args.getInt("l2"));
  }
  if (args.getInt("llc") > 0) {
    spec.llcBytes = static_cast<std::size_t>(args.getInt("llc"));
  }
  if (args.getBool("pad")) {
    spec.xPadDoubles = grid::kSimdDoubles;
  }

  harness::printMachineReport(std::cout, machine);
  std::cout << "\ncost model caches: L2 " << harness::formatBytes(spec.l2Bytes)
            << ", LLC " << harness::formatBytes(spec.llcBytes);
  if (spec.xPadDoubles > 1) {
    std::cout << ", x-pitch pad " << spec.xPadDoubles << " doubles";
  }
  std::cout << "\n";
  std::cout << "ranking " << (args.getBool("extensions") ? "extended " : "")
            << "registry for N=" << n << ", threads=" << nThreads
            << " (predicted, no kernel executed)\n\n";

  const analysis::ScheduleAdvisor advisor(spec);
  auto ranked = advisor.rank(n, nThreads, args.getBool("extensions"));

  const std::vector<std::string> header = {
      "rank",    "variant",   "traffic",     "bytes/cell", "working set",
      "recomp",  "max conc",  "barriers",    "bound"};
  harness::Table table(header);
  harness::CsvWriter csv(args.getString("csv"), header);
  int strictFailures = 0;
  int rank = 1;
  for (auto& rv : ranked) {
    if (args.getBool("strict")) {
      strictFailures += strictCheck(rv.cost);
    }
    const std::vector<std::string> row = {
        std::to_string(rank++),
        rv.cost.variant,
        fmtBytes(rv.cost.trafficBytes),
        harness::formatDouble(rv.cost.bytesPerCell, 1),
        fmtBytes(rv.cost.workingSetBytes),
        harness::formatDouble(rv.cost.recomputeFraction, 3),
        std::to_string(rv.cost.maxConcurrency),
        std::to_string(rv.cost.barrierCount),
        rv.cost.capacityBound ? "LLC" : "-"};
    table.addRow(row);
    csv.writeRow(row);
  }
  table.print(std::cout);

  bool anyNote = false;
  for (const auto& rv : ranked) {
    for (const auto& note : rv.cost.notes) {
      if (!anyNote) {
        std::cout << "\nnotes:\n";
        anyNote = true;
      }
      std::cout << "  [" << analysis::costNoteKindName(note.kind) << "] "
                << rv.cost.variant << ": " << note.message() << "\n";
    }
  }

  const int nBoxes = static_cast<int>(args.getInt("nboxes"));
  const std::size_t shown = std::min<std::size_t>(ranked.size(), 4);
  if (nBoxes > 1) {
    std::cout << "\nlevel-policy ranking for " << nBoxes << " x " << n
              << "^3 boxes, threads=" << nThreads
              << " (top variants by predicted traffic):\n\n";
    harness::Table ptable({"variant", "policy", "tasks", "depth",
                           "max conc", "avg conc", "barriers",
                           "speedup vs seq"});
    for (std::size_t i = 0; i < shown; ++i) {
      const auto policies = analysis::analyzeLevelPolicies(
          ranked[i].cfg, n, nBoxes, nThreads, spec);
      for (const auto& pc : policies) {
        ptable.addRow({ranked[i].cost.variant,
                       core::levelPolicyName(pc.policy),
                       std::to_string(pc.taskCount),
                       std::to_string(pc.depth),
                       std::to_string(pc.maxConcurrency),
                       harness::formatDouble(pc.avgConcurrency, 1),
                       std::to_string(pc.barrierCount),
                       harness::formatDouble(pc.predictedSpeedup, 2)});
      }
    }
    ptable.print(std::cout);
  }

  // Over-synchronization advisory: lower the step graph of one RK4 step
  // (the service's scheme: four exchanges, RHS tiles with their stage
  // combines) under the parallel policy over a small level of this box
  // count, and ask the graph checker which dependency edges could be
  // dropped without losing race-freedom. Removable edges are parallelism
  // the level-policy table's depth and concurrency cannot see. Several
  // boxes are lowered at side <= 16; a single box at side <= 64, so a
  // large box's logical tiles (and the tile-cut exchange copies) are
  // checked too.
  {
    const int side = std::min(n, nBoxes > 1 ? 16 : 64);
    const int wantBoxes = std::min(nBoxes, 8);
    grid::IntVect counts = grid::IntVect::unit(1);
    while (counts.product() < wantBoxes) {
      int smallest = 0;
      for (int d = 1; d < grid::SpaceDim; ++d) {
        if (counts[d] < counts[smallest]) {
          smallest = d;
        }
      }
      counts[smallest] += 1;
    }
    const grid::ProblemDomain dom(grid::Box(
        grid::IntVect::zero(),
        grid::IntVect{counts[0] * side - 1, counts[1] * side - 1,
                      counts[2] * side - 1}));
    const grid::DisjointBoxLayout dbl(dom, side);
    const core::StepProgram rk4 =
        solvers::buildStepProgram(solvers::Scheme::RK4, 1e-3);
    bool anyGraphNote = false;
    for (std::size_t i = 0; i < shown; ++i) {
      core::StepExecOptions opts;
      opts.policy = core::LevelPolicy::BoxParallel;
      core::StepGraphExecutor exec(ranked[i].cfg, nThreads, opts);
      grid::LevelData u(dbl, kernels::kNumComp, kernels::kNumGhost);
      const analysis::TaskGraphModel model = exec.lowerModel(rk4, u, {});
      const analysis::GraphCheckReport rep =
          analysis::checkTaskGraph(model, /*findRemovable=*/true);
      if (rep.removable.empty()) {
        continue;
      }
      analysis::CostNote note;
      note.kind = analysis::CostNoteKind::OverSynchronized;
      note.where = model.name;
      note.actualBytes = static_cast<double>(rep.removable.size());
      note.limitBytes = static_cast<double>(rep.edgeCount);
      if (!anyGraphNote) {
        std::cout << "\ntask-graph notes (" << dbl.size() << " x " << side
                  << "^3 boxes, analysis/graphcheck):\n";
        anyGraphNote = true;
      }
      std::cout << "  [" << analysis::costNoteKindName(note.kind) << "] "
                << ranked[i].cost.variant << ": " << note.message() << "\n";
    }
  }

  const std::string schemeArg = args.getString("scheme");
  if (!schemeArg.empty()) {
    std::vector<solvers::Scheme> schemes;
    if (schemeArg == "all") {
      schemes.assign(std::begin(solvers::kSchemes),
                     std::end(solvers::kSchemes));
    } else {
      solvers::Scheme s{};
      if (!solvers::parseScheme(schemeArg, s)) {
        std::cerr << "error: unknown --scheme '" << schemeArg
                  << "' (euler/midpoint/ssprk3/rk4 or 'all')\n";
        return 1;
      }
      schemes.push_back(s);
    }
    // Whole-step liveness notes (analysis/stepcheck): dead stores and
    // dead exchanges in each scheme's recorded program.
    bool anyStepNote = false;
    for (const solvers::Scheme s : schemes) {
      const core::StepProgram prog =
          solvers::buildStepProgram(s, /*dt=*/1.0);
      const analysis::StepCheckReport rep = analysis::checkStepProgram(prog);
      if (args.getBool("strict") && !rep.ok()) {
        std::cerr << "model error: " << solvers::schemeName(s) << ": "
                  << rep.diagnostics[0].message() << "\n";
        ++strictFailures;
      }
      for (const analysis::CostNote& note :
           analysis::stepCheckNotes(rep, prog)) {
        if (!anyStepNote) {
          std::cout << "\nwhole-step notes (analysis/stepcheck):\n";
          anyStepNote = true;
        }
        std::cout << "  [" << analysis::costNoteKindName(note.kind) << "] "
                  << solvers::schemeName(s) << ": " << note.message()
                  << "\n";
      }
    }
    if (!anyStepNote) {
      std::cout << "\nwhole-step notes: every scheme's step program is "
                   "live\n";
    }
  }

  if (args.getBool("kernels")) {
    // Kernel-contract advisory: differentially probe the shipped stage
    // kernels and pipelines (analysis/kernelcheck) and lift any
    // declared-but-never-read stencil offsets into cost notes. A small
    // sampled probe suffices — tightness is per offset, not per cell.
    analysis::ProbeOptions popts;
    popts.boxSize = 6;
    popts.exhaustiveSlotLimit = 0;
    popts.sampleTarget = 400;
    bool anyKernelNote = false;
    for (const analysis::KernelShape& shape : analysis::builtinShapes()) {
      const analysis::KernelCheckReport rep =
          analysis::checkKernelFootprints(
              analysis::inferFootprint(shape, popts));
      for (const analysis::CostNote& note :
           analysis::overdeclaredNotes(rep)) {
        if (!anyKernelNote) {
          std::cout << "\nkernel-contract notes (analysis/kernelcheck):\n";
          anyKernelNote = true;
        }
        std::cout << "  [" << analysis::costNoteKindName(note.kind) << "] "
                  << note.message() << "\n";
      }
    }
    if (!anyKernelNote) {
      std::cout << "\nkernel-contract notes: every declared stencil "
                   "offset is read (footprints tight)\n";
    }
  }

  const analysis::TileAdvice advice = advisor.recommendBlockedTile(n, nThreads);
  std::cout << "\nrecommended blocked-wavefront tile: ";
  if (advice.cost.variant.empty()) {
    std::cout << "(none) — " << advice.rationale << "\n";
  } else {
    std::cout << advice.cost.variant << "\n  " << advice.rationale << "\n";
  }

  if (args.getBool("strict")) {
    if (strictFailures > 0) {
      std::cerr << "\n" << strictFailures
                << " model-consistency check(s) failed\n";
      return 1;
    }
    std::cout << "\nall model-consistency checks passed over "
              << ranked.size() << " variants\n";
  }
  return 0;
}
