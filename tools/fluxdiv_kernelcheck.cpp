// Kernel footprint contract checker CLI (docs/static-analysis.md,
// "Kernel contract checking"). Differentially probes every shipped
// kernel shape — the scalar and pencil stage drivers per direction, the
// reference pipelines, and the variant executors' whole-box paths — and
// proves the declared stencil footprints of kernels/footprint.hpp sound
// and tight: K1 (every observed access is declared), K2 (every declared
// offset is exercised), K3 (the RHS tasks of the lowered step graphs
// read what the proven hulls say they must).
//
//   ./tools/fluxdiv_kernelcheck [--stage <substring>] [--boxsize 8]
//                               [--pitch all|padded|dense] [--threads 4]
//                               [--strict] [--json]
//                               [--mutate] [--seeds 5]
//
// --stage filters shapes by name substring ("pencil:EvalFlux1",
//   "variant:", ...); the graph consistency pass runs only when no
//   filter is set (it needs the proven hulls of the full shape set).
// --strict exits 1 unless every contract proves clean (advisories and
//   soundness violations alike).
// --mutate additionally runs the seeded kernel miscompilations of
//   analysis/mutate (read widening, stencil shifts, forgotten declared
//   offsets) and exits 1 unless the checker rejects each with the
//   predicted witness offset — the CI guard that the checker detects
//   contract violations, not merely accepts sound kernels.

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/kernelcheck.hpp"
#include "analysis/mutate.hpp"
#include "core/kernelshapes.hpp"
#include "core/stepgraph.hpp"
#include "core/variant.hpp"
#include "grid/box.hpp"
#include "grid/leveldata.hpp"
#include "harness/args.hpp"
#include "harness/table.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "solvers/integrator.hpp"

using namespace fluxdiv;
using core::VariantConfig;
using grid::Box;
using grid::DisjointBoxLayout;
using grid::IntVect;
using grid::LevelData;
using grid::Pitch;
using grid::ProblemDomain;

namespace {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string fmtOffset(const IntVect& v) {
  std::string out = "(";
  out += std::to_string(v[0]);
  out += ",";
  out += std::to_string(v[1]);
  out += ",";
  out += std::to_string(v[2]);
  out += ")";
  return out;
}

struct ShapeRun {
  analysis::KernelFootprintModel model;
  analysis::KernelCheckReport report;
};

/// The same representative schedule families the graphcheck tool sweeps.
std::vector<VariantConfig> representativeFamilies(int boxSize) {
  const int tile = boxSize >= 8 ? 4 : 2;
  return {
      core::makeBaseline(core::ParallelGranularity::WithinBox),
      core::makeShiftFuse(core::ParallelGranularity::WithinBox),
      core::makeBlockedWF(tile, core::ParallelGranularity::WithinBox,
                          core::ComponentLoop::Outside),
      core::makeBlockedWF(tile, core::ParallelGranularity::WithinBox,
                          core::ComponentLoop::Inside),
      core::makeOverlapped(core::IntraTileSchedule::ShiftFuse, tile,
                           core::ParallelGranularity::WithinBox),
  };
}

int countObservedReads(const analysis::KernelFootprintModel& m) {
  int n = 0;
  for (const analysis::RoleFootprint& r : m.reads) {
    n += static_cast<int>(r.observed.size());
  }
  return n;
}

/// K3: lower one forward-Euler step (exchange, RHS evaluation, axpy)
/// through the step-graph executor for the representative families and
/// prove its RHS tasks' declared footprints agree with the hulls the
/// differential probe established.
std::vector<analysis::KernelDiag>
checkLoweredGraphs(const analysis::ProvenFootprints& proven, int boxSize,
                   int nThreads, int& graphsChecked) {
  const ProblemDomain dom(Box(
      IntVect::zero(),
      IntVect{2 * boxSize - 1, 2 * boxSize - 1, 2 * boxSize - 1}));
  const DisjointBoxLayout dbl(dom, boxSize);
  LevelData u(dbl, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(u);
  const core::StepProgram prog =
      solvers::buildStepProgram(solvers::Scheme::ForwardEuler, 1e-3);

  std::vector<analysis::KernelDiag> diags;
  for (const VariantConfig& cfg : representativeFamilies(boxSize)) {
    for (const core::LevelPolicy policy :
         {core::LevelPolicy::BoxParallel, core::LevelPolicy::Hybrid}) {
      core::StepExecOptions opts;
      opts.policy = policy;
      core::StepGraphExecutor exec(cfg, nThreads, opts);
      ++graphsChecked;
      std::vector<analysis::KernelDiag> d = analysis::checkGraphFootprints(
          exec.lowerModel(prog, u, {}), proven);
      diags.insert(diags.end(), std::make_move_iterator(d.begin()),
                   std::make_move_iterator(d.end()));
    }
  }
  return diags;
}

int runMutations(const std::vector<ShapeRun>& runs, int nSeeds, bool json,
                 std::vector<std::string>& jsonRows) {
  using analysis::mutate::KernelMutation;
  int failures = 0;
  int executed = 0;
  int skipped = 0;
  for (const ShapeRun& sr : runs) {
    for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(nSeeds);
         ++seed) {
      const KernelMutation muts[] = {
          analysis::mutate::widenKernelRead(sr.model, seed),
          analysis::mutate::shiftKernelStencil(sr.model, seed),
          analysis::mutate::forgetDeclaredOffset(sr.model, seed),
      };
      for (const KernelMutation& mut : muts) {
        if (mut.expect == analysis::KernelDiagKind::Ok) {
          ++skipped; // shape offered no candidate for this class
          continue;
        }
        ++executed;
        const analysis::KernelCheckReport rep =
            analysis::checkKernelFootprints(mut.model);
        bool caught = false;
        for (const analysis::KernelDiag& d : rep.diagnostics) {
          if (d.kind == mut.expect && d.role == mut.role &&
              d.offset == mut.offset) {
            caught = true;
            break;
          }
        }
        bool alsoCaught = mut.expectAlso == analysis::KernelDiagKind::Ok;
        if (!alsoCaught) {
          for (const analysis::KernelDiag& d : rep.advisories) {
            if (d.kind == mut.expectAlso && d.role == mut.role) {
              alsoCaught = true;
              break;
            }
          }
        }
        if (!caught || !alsoCaught) {
          ++failures;
          std::cerr << "MISSED MUTATION [" << sr.model.kernel << ", seed "
                    << seed << "]: " << mut.what << "\n  expected "
                    << analysis::kernelDiagKindName(mut.expect) << " on '"
                    << mut.role << "' at " << fmtOffset(mut.offset);
          if (mut.expectAlso != analysis::KernelDiagKind::Ok) {
            std::cerr << " (plus "
                      << analysis::kernelDiagKindName(mut.expectAlso)
                      << ")";
          }
          std::cerr << ", got " << rep.diagnostics.size()
                    << " diagnostic(s), " << rep.advisories.size()
                    << " advisory(ies)";
          for (const analysis::KernelDiag& d : rep.diagnostics) {
            std::cerr << "\n    " << d.message();
          }
          std::cerr << "\n";
        }
      }
    }
  }
  if (json) {
    std::string row = "  \"mutations\": {\"executed\": ";
    row += std::to_string(executed);
    row += ", \"skipped\": ";
    row += std::to_string(skipped);
    row += ", \"missed\": ";
    row += std::to_string(failures);
    row += "}";
    jsonRows.push_back(std::move(row));
  } else {
    std::cout << "\nmutation suite: " << executed
              << " seeded miscompilation(s), " << failures << " missed, "
              << skipped << " without a candidate\n";
  }
  return failures;
}

} // namespace

int main(int argc, char** argv) {
  harness::Args args;
  args.addString("stage", "",
                 "only check shapes whose name contains this substring "
                 "(empty = all shapes + graph consistency)");
  args.addInt("boxsize", 8, "probe output-region side N");
  args.addString("pitch", "all",
                 "row pitches to probe: all, padded, or dense");
  args.addInt("threads", 4, "threads for the variant-executor shapes");
  args.addBool("strict",
               "exit 1 unless every contract proves sound AND tight");
  args.addBool("json", "machine-readable JSON output");
  args.addBool("mutate",
               "run the seeded kernel miscompilations and require the "
               "checker to reject each with its predicted witness");
  args.addInt("seeds", 5, "seeds per mutation class for --mutate");
  try {
    if (!args.parse(argc, argv)) {
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  const int boxSize = static_cast<int>(args.getInt("boxsize"));
  const int nThreads = static_cast<int>(args.getInt("threads"));
  if (boxSize < 4 || nThreads < 1) {
    std::cerr << "error: need --boxsize >= 4 (the widest stencil spans "
                 "5 cells) and --threads >= 1\n";
    return 1;
  }
  std::vector<Pitch> pitches;
  const std::string& pitchArg = args.getString("pitch");
  if (pitchArg == "all") {
    pitches = {Pitch::Padded, Pitch::Dense};
  } else if (pitchArg == "padded") {
    pitches = {Pitch::Padded};
  } else if (pitchArg == "dense") {
    pitches = {Pitch::Dense};
  } else {
    std::cerr << "error: --pitch must be all, padded, or dense (got '"
              << pitchArg << "')\n";
    return 1;
  }

  const std::string& filter = args.getString("stage");
  std::vector<analysis::KernelShape> shapes = analysis::builtinShapes();
  {
    const int tile = boxSize >= 8 ? 4 : 2;
    std::vector<analysis::KernelShape> variants =
        core::variantShapes(nThreads, tile);
    shapes.insert(shapes.end(),
                  std::make_move_iterator(variants.begin()),
                  std::make_move_iterator(variants.end()));
  }
  if (!filter.empty()) {
    std::erase_if(shapes, [&](const analysis::KernelShape& s) {
      return s.name.find(filter) == std::string::npos;
    });
  }
  if (shapes.empty()) {
    std::cerr << "error: no kernel shape matches --stage '" << filter
              << "'\n";
    return 1;
  }

  const bool json = args.getBool("json");
  analysis::ProbeOptions opts;
  opts.boxSize = boxSize;

  std::vector<ShapeRun> runs;
  runs.reserve(shapes.size());
  for (const analysis::KernelShape& shape : shapes) {
    ShapeRun sr;
    sr.model = analysis::inferFootprintAcross(shape, {boxSize}, pitches,
                                              opts);
    sr.report = analysis::checkKernelFootprints(sr.model);
    runs.push_back(std::move(sr));
  }

  int soundnessDiagnostics = 0;
  int tightnessAdvisories = 0;
  std::vector<std::string> jsonRows;
  if (json) {
    std::string row = "  \"shapes\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const ShapeRun& sr = runs[i];
      if (i > 0) {
        row += ", ";
      }
      row += "{\"kernel\": \"" + jsonEscape(sr.model.kernel) + "\"";
      row += ", \"stage\": \"" +
             analysis::kernelStageTag(sr.model.stage, sr.model.dir) + "\"";
      row += ", \"roles\": " + std::to_string(sr.report.rolesChecked);
      row += ", \"declared\": " +
             std::to_string(sr.report.declaredOffsets);
      row += ", \"observed\": " +
             std::to_string(countObservedReads(sr.model));
      row += ", \"probes\": " + std::to_string(sr.report.probes);
      row += ", \"diagnostics\": " +
             std::to_string(sr.report.diagnostics.size());
      row += ", \"advisories\": " +
             std::to_string(sr.report.advisories.size());
      row += "}";
    }
    row += "]";
    jsonRows.push_back(std::move(row));
  } else {
    std::cout << "checking kernel footprint contracts over " << boxSize
              << "^3 output regions";
    if (pitches.size() > 1) {
      std::cout << ", padded and dense rows";
    }
    std::cout << "\n\n";
    harness::Table table({"kernel", "stage", "roles", "declared",
                          "observed", "probes", "unsound", "untight"});
    for (const ShapeRun& sr : runs) {
      table.addRow(
          {sr.model.kernel,
           analysis::kernelStageTag(sr.model.stage, sr.model.dir),
           std::to_string(sr.report.rolesChecked),
           std::to_string(sr.report.declaredOffsets),
           std::to_string(countObservedReads(sr.model)),
           std::to_string(sr.report.probes),
           sr.report.ok() ? "-"
                          : std::to_string(sr.report.diagnostics.size()),
           sr.report.advisories.empty()
               ? "-"
               : std::to_string(sr.report.advisories.size())});
    }
    table.print(std::cout);
  }
  for (const ShapeRun& sr : runs) {
    soundnessDiagnostics += static_cast<int>(sr.report.diagnostics.size());
    tightnessAdvisories += static_cast<int>(sr.report.advisories.size());
    for (const analysis::KernelDiag& d : sr.report.diagnostics) {
      std::cerr << "CONTRACT: " << d.message() << "\n";
    }
    for (const analysis::KernelDiag& d : sr.report.advisories) {
      std::cerr << "ADVISORY: " << d.message() << "\n";
    }
  }

  // K3 over the lowered task graphs, against the hulls just proven. Only
  // meaningful when the probe covered the full shape set.
  int graphMismatches = 0;
  int graphsChecked = 0;
  if (filter.empty()) {
    std::vector<analysis::KernelFootprintModel> models;
    models.reserve(runs.size());
    for (const ShapeRun& sr : runs) {
      models.push_back(sr.model);
    }
    const std::vector<analysis::KernelDiag> graphDiags =
        checkLoweredGraphs(analysis::extractProven(models), boxSize,
                           nThreads, graphsChecked);
    for (const analysis::KernelDiag& d : graphDiags) {
      if (d.kind == analysis::KernelDiagKind::Overdeclared) {
        ++tightnessAdvisories;
        std::cerr << "ADVISORY: " << d.message() << "\n";
      } else {
        ++graphMismatches;
        std::cerr << "GRAPH: " << d.message() << "\n";
      }
    }
    if (json) {
      std::string row = "  \"graphs\": {\"checked\": ";
      row += std::to_string(graphsChecked);
      row += ", \"mismatches\": ";
      row += std::to_string(graphMismatches);
      row += "}";
      jsonRows.push_back(std::move(row));
    } else {
      std::cout << "\ngraph consistency: " << graphsChecked
                << " lowered graph(s), " << graphMismatches
                << " footprint mismatch(es)\n";
    }
  }

  int mutationFailures = 0;
  if (args.getBool("mutate")) {
    mutationFailures = runMutations(
        runs, static_cast<int>(args.getInt("seeds")), json, jsonRows);
  }

  if (json) {
    std::cout << "{\n";
    for (std::size_t i = 0; i < jsonRows.size(); ++i) {
      std::cout << jsonRows[i] << (i + 1 < jsonRows.size() ? ",\n" : "\n");
    }
    std::cout << "}\n";
  }

  // Missed mutations are self-test failures and always fail; contract
  // diagnostics and tightness advisories on the real kernels fail under
  // --strict.
  const bool failed =
      mutationFailures > 0 ||
      (args.getBool("strict") &&
       (soundnessDiagnostics > 0 || graphMismatches > 0 ||
        tightnessAdvisories > 0));
  if (failed) {
    std::cerr << "\nkernelcheck: FAILED (" << soundnessDiagnostics
              << " contract diagnostic(s), " << graphMismatches
              << " graph mismatch(es), " << tightnessAdvisories
              << " tightness advisory(ies), " << mutationFailures
              << " missed mutation(s))\n";
    return 1;
  }
  if (!json) {
    std::cout << "\nkernelcheck: all contracts sound and tight over "
              << runs.size() << " kernel shape(s)\n";
  }
  return 0;
}
