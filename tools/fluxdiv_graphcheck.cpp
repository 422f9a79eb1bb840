// Task-graph race verifier CLI (docs/static-analysis.md, "Task-graph
// verification"). Lowers one forward-Euler step — one ghost exchange, one
// flux-divergence evaluation, one axpy — through the step-graph executor
// (core/stepgraph) for every schedule family under each level policy, and
// proves the graphs race-free with analysis::checkTaskGraph: G1
// acyclicity, G2 happens-before-ordered conflicting footprints, G3 ghost
// reads covered by preceding exchange-op writes. Also reports the
// over-synchronization advisory (removable edges).
//
//   ./tools/fluxdiv_graphcheck [--policy all|sequential|parallel|hybrid]
//                              [--nboxes 8] [--boxsize 16] [--threads 4]
//                              [--strict] [--json]
//                              [--mutate] [--seeds 5] [--replay]
//
// --strict exits 1 unless every graph verifies clean.
// --mutate additionally runs the seeded graph miscompilations of
//   analysis/mutate (edge drops, edge reroutes, ghost-write shrinks) and
//   exits 1 unless the checker rejects each with the predicted two-task
//   witness — the CI guard that the verifier actually detects races, not
//   merely accepts legal graphs.
// --replay additionally executes each step under the four adversarial
//   serial orderings (fifo, lifo, steal, random; core::ReplayMode) and
//   exits 1 unless every ordering produces a solution bit-identical to the
//   eager step.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/graphcheck.hpp"
#include "analysis/mutate.hpp"
#include "analysis/verifier.hpp"
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
using core::LevelPolicy;
using core::VariantConfig;
using grid::Box;
using grid::DisjointBoxLayout;
using grid::IntVect;
using grid::LevelData;
using grid::ProblemDomain;

namespace {

/// The four schedule families at one representative configuration each
/// (both blocked-wavefront component loops; the overlapped tiles become
/// (box x tile) tasks under hybrid).
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

struct GraphRun {
  std::string variant;
  std::string policy;
  analysis::GraphCheckReport report;
};

constexpr grid::Real kDt = 1e-3;

/// One forward-Euler step: exchange, RHS evaluation, axpy — the level's
/// exchange-plus-evaluation graph and one stage combine.
core::StepProgram eulerStep() {
  return solvers::buildStepProgram(solvers::Scheme::ForwardEuler, kDt);
}

LevelData makeLevel(const DisjointBoxLayout& dbl) {
  LevelData u(dbl, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(u);
  return u;
}

/// The analysis model of the Euler step's graph under `policy` (lowered,
/// never executed).
analysis::TaskGraphModel lowerStep(const VariantConfig& cfg,
                                   LevelPolicy policy, int nThreads,
                                   const DisjointBoxLayout& dbl) {
  core::StepExecOptions opts;
  opts.policy = policy;
  core::StepGraphExecutor exec(cfg, nThreads, opts);
  LevelData u = makeLevel(dbl);
  return exec.lowerModel(eulerStep(), u, {});
}

int runMutations(const std::vector<VariantConfig>& families,
                 const std::vector<LevelPolicy>& policies,
                 const DisjointBoxLayout& dbl, int nThreads, int nSeeds,
                 bool json, std::vector<std::string>& jsonRows) {
  using analysis::mutate::GraphMutation;
  int failures = 0;
  int executed = 0;
  int skipped = 0;
  for (const VariantConfig& cfg : families) {
    for (const LevelPolicy policy : policies) {
      const analysis::TaskGraphModel model =
          lowerStep(cfg, policy, nThreads, dbl);
      for (std::uint64_t seed = 0;
           seed < static_cast<std::uint64_t>(nSeeds); ++seed) {
        const GraphMutation muts[] = {
            analysis::mutate::dropGraphEdge(model, seed),
            analysis::mutate::rerouteGraphEdge(model, seed),
            analysis::mutate::shrinkGhostWrite(model, seed),
        };
        for (const GraphMutation& mut : muts) {
          if (mut.expect == analysis::DiagnosticKind::Ok) {
            ++skipped; // graph offered no candidate for this class
            continue;
          }
          ++executed;
          const auto rep = analysis::checkTaskGraph(mut.model);
          const std::string tagA = model.label(mut.taskA);
          const std::string tagB = model.label(mut.taskB);
          bool caught = false;
          for (const analysis::Diagnostic& d : rep.diagnostics) {
            if (d.kind != mut.expect) {
              continue;
            }
            const bool namesPair =
                (d.stageA == tagA && d.stageB == tagB) ||
                (d.stageA == tagB && d.stageB == tagA);
            if (namesPair) {
              caught = true;
              break;
            }
          }
          if (!caught) {
            ++failures;
            std::cerr << "MISSED MUTATION [" << model.name
                      << ", seed " << seed << "]: " << mut.what
                      << "\n  expected "
                      << analysis::diagnosticKindName(mut.expect)
                      << " naming '" << tagA << "' vs '" << tagB
                      << "', got " << rep.diagnostics.size()
                      << " diagnostic(s)";
            for (const auto& d : rep.diagnostics) {
              std::cerr << "\n    " << d.message();
            }
            std::cerr << "\n";
          }
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

int runReplay(const std::vector<VariantConfig>& families,
              const std::vector<LevelPolicy>& policies,
              const DisjointBoxLayout& dbl, int nThreads, bool json,
              std::vector<std::string>& jsonRows) {
  int failures = 0;
  int executed = 0;
  for (const VariantConfig& cfg : families) {
    // Reference: the eager step from the same initial data.
    LevelData ref = makeLevel(dbl);
    {
      solvers::FluxDivRhs rhs(cfg, nThreads);
      solvers::TimeIntegrator integ(solvers::Scheme::ForwardEuler, dbl);
      integ.advanceEager(ref, kDt, rhs);
    }
    for (const LevelPolicy policy : policies) {
      for (const core::ReplayOrder order : core::kReplayOrders) {
        core::StepExecOptions opts;
        opts.policy = policy;
        opts.replay = {order, /*seed=*/1234};
        core::StepGraphExecutor exec(cfg, nThreads, opts);
        LevelData u = makeLevel(dbl);
        exec.run(eulerStep(), u, {});
        ++executed;
        const double diff = LevelData::maxAbsDiffValid(ref, u);
        if (diff != 0.0) {
          ++failures;
          std::cerr << "REPLAY MISMATCH: " << cfg.name() << " / "
                    << core::levelPolicyName(policy) << " / "
                    << core::replayOrderName(order)
                    << ": max |diff| = " << diff << "\n";
        }
      }
    }
  }
  if (json) {
    std::string row = "  \"replay\": {\"executed\": ";
    row += std::to_string(executed);
    row += ", \"mismatched\": ";
    row += std::to_string(failures);
    row += "}";
    jsonRows.push_back(std::move(row));
  } else {
    std::cout << "replay suite: " << executed
              << " adversarial ordering(s), " << failures
              << " mismatched vs eager\n";
  }
  return failures;
}

} // namespace

int main(int argc, char** argv) {
  harness::Args args;
  args.addString("policy", "all",
                 "level policy to verify: all (parallel and hybrid), "
                 "sequential, parallel, or hybrid");
  args.addInt("nboxes", 8, "boxes per level");
  args.addInt("boxsize", 16, "box side N");
  args.addInt("threads", 4, "pool workers (task ownership layout)");
  args.addBool("strict", "exit 1 unless every graph verifies clean");
  args.addBool("json", "machine-readable JSON output");
  args.addBool("mutate",
               "run the seeded graph miscompilations and require the "
               "checker to reject each with its predicted witness");
  args.addInt("seeds", 5, "seeds per mutation class for --mutate");
  args.addBool("replay",
               "execute each step under the four adversarial orderings "
               "and require bit-identity with the eager step");
  try {
    if (!args.parse(argc, argv)) {
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  const int nBoxes = static_cast<int>(args.getInt("nboxes"));
  const int boxSize = static_cast<int>(args.getInt("boxsize"));
  const int nThreads = static_cast<int>(args.getInt("threads"));
  if (nBoxes < 1 || boxSize < 8 || nThreads < 1) {
    std::cerr << "error: need --nboxes >= 1, --boxsize >= 8 (two ghost "
                 "layers plus a non-empty interior), --threads >= 1\n";
    return 1;
  }
  std::vector<LevelPolicy> policies;
  const std::string& policyArg = args.getString("policy");
  if (policyArg == "all") {
    policies = {LevelPolicy::BoxParallel, LevelPolicy::Hybrid};
  } else {
    LevelPolicy p{};
    if (!core::parseLevelPolicy(policyArg, p)) {
      std::cerr << "error: --policy must be all, sequential, parallel, or "
                   "hybrid (got '"
                << policyArg << "')\n";
      return 1;
    }
    policies = {p};
  }

  const IntVect counts = factorBoxes(nBoxes);
  const ProblemDomain dom(Box(
      IntVect::zero(), IntVect{counts[0] * boxSize - 1,
                               counts[1] * boxSize - 1,
                               counts[2] * boxSize - 1}));
  const DisjointBoxLayout dbl(dom, boxSize);
  const auto families = representativeFamilies(boxSize);
  const bool json = args.getBool("json");

  std::vector<GraphRun> runs;
  for (const VariantConfig& cfg : families) {
    for (const LevelPolicy policy : policies) {
      GraphRun gr;
      gr.variant = cfg.name();
      gr.policy = core::levelPolicyName(policy);
      gr.report = analysis::checkTaskGraph(
          lowerStep(cfg, policy, nThreads, dbl), /*findRemovable=*/true);
      runs.push_back(std::move(gr));
    }
  }

  int raceDiagnostics = 0;
  std::vector<std::string> jsonRows;
  if (json) {
    std::string row = "  \"graphs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const GraphRun& gr = runs[i];
      if (i > 0) {
        row += ", ";
      }
      row += "{\"variant\": \"" + jsonEscape(gr.variant) + "\"";
      row += ", \"policy\": \"" + gr.policy + "\"";
      row += ", \"tasks\": " + std::to_string(gr.report.taskCount);
      row += ", \"edges\": " + std::to_string(gr.report.edgeCount);
      row += ", \"criticalPath\": " +
             std::to_string(gr.report.criticalPath);
      row += ", \"diagnostics\": " +
             std::to_string(gr.report.diagnostics.size());
      row += ", \"removable\": " +
             std::to_string(gr.report.removable.size());
      row += "}";
    }
    row += "]";
    jsonRows.push_back(std::move(row));
  } else {
    std::cout << "verifying forward-Euler step graphs over "
              << dbl.size() << " x " << boxSize
              << "^3 boxes, threads=" << nThreads << "\n\n";
    harness::Table table({"variant", "policy", "tasks", "edges",
                          "depth", "races", "removable"});
    for (const GraphRun& gr : runs) {
      table.addRow({gr.variant, gr.policy,
                    std::to_string(gr.report.taskCount),
                    std::to_string(gr.report.edgeCount),
                    std::to_string(gr.report.criticalPath),
                    gr.report.ok()
                        ? "-"
                        : std::to_string(gr.report.diagnostics.size()),
                    std::to_string(gr.report.removable.size())});
    }
    table.print(std::cout);
  }
  for (const GraphRun& gr : runs) {
    raceDiagnostics += static_cast<int>(gr.report.diagnostics.size());
    for (const analysis::Diagnostic& d : gr.report.diagnostics) {
      std::cerr << "RACE [" << gr.report.graph << "]: " << d.message()
                << "\n";
    }
  }

  int mutationFailures = 0;
  if (args.getBool("mutate")) {
    mutationFailures =
        runMutations(families, policies, dbl, nThreads,
                     static_cast<int>(args.getInt("seeds")), json,
                     jsonRows);
  }
  int replayFailures = 0;
  if (args.getBool("replay")) {
    replayFailures =
        runReplay(families, policies, dbl, nThreads, json, jsonRows);
  }

  if (json) {
    std::cout << "{\n";
    for (std::size_t i = 0; i < jsonRows.size(); ++i) {
      std::cout << jsonRows[i] << (i + 1 < jsonRows.size() ? ",\n" : "\n");
    }
    std::cout << "}\n";
  }

  // Missed mutations and replay mismatches are self-test failures and
  // always fail; race diagnostics on the real graphs fail under --strict.
  const bool failed = mutationFailures > 0 || replayFailures > 0 ||
                      (args.getBool("strict") && raceDiagnostics > 0);
  if (failed) {
    std::cerr << "\ngraphcheck: FAILED (" << raceDiagnostics
              << " race diagnostic(s), " << mutationFailures
              << " missed mutation(s), " << replayFailures
              << " replay mismatch(es))\n";
    return 1;
  }
  if (!json) {
    std::cout << "\ngraphcheck: all clean over " << runs.size()
              << " graph(s)\n";
  }
  return 0;
}
