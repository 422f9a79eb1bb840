// Whole-step semantic-equivalence prover CLI (docs/static-analysis.md,
// "stepcheck"). Records each RK scheme as a symbolic core::StepProgram,
// plans its halos per fuse mode, and proves with analysis::checkStepProgram
// that the fuse transforms of core::StepGraphExecutor cannot change the
// answer: S1 per-layer provenance equivalence with eager semantics
// (including CommAvoid's halo recomputation), S2 liveness (no
// read-before-write; dead stores/exchanges advised), S3 halo-width
// tightness (width-1 provably breaks S1; over-deep widths advised with
// their recompute price).
//
//   ./tools/fluxdiv_stepcheck [--scheme all|euler|midpoint|ssprk3|rk4]
//                             [--fuse all|fused|commavoid]
//                             [--nsteps 0] [--boxsize 16] [--nboxes 8]
//                             [--strict] [--json]
//                             [--mutate] [--seeds 5]
//
// --nsteps 0 (the default) sweeps both 1- and 3-step programs, proving
//   the cross-step fusion sound too; any positive value checks just that.
// --strict exits 1 unless every program verifies clean.
// --mutate additionally runs the seeded step miscompilations of
//   analysis/mutate (dropped/shaved/deepened halo exchanges, reordered
//   conflicting ops, skewed combine coefficients) and exits 1 unless the
//   checker rejects each with the predicted witness op — the CI guard
//   that the prover actually detects miscompiled steps, not merely
//   accepts sound ones.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/mutate.hpp"
#include "analysis/stepcheck.hpp"
#include "core/variant.hpp"
#include "harness/args.hpp"
#include "harness/table.hpp"
#include "solvers/integrator.hpp"

using namespace fluxdiv;
using core::StepFuse;
using solvers::Scheme;

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

/// The fuse modes stepcheck proves against the eager reference. Eager
/// itself is the reference semantics — nothing to prove.
constexpr StepFuse kCheckedFuses[] = {StepFuse::Fused, StepFuse::CommAvoid};

struct ProgramRun {
  std::string scheme;
  int steps = 1;
  std::string fuse;
  std::size_t ops = 0;
  analysis::StepCheckReport report;
};

std::string comboTag(Scheme scheme, int steps, StepFuse fuse) {
  return std::string(solvers::schemeName(scheme)) + " x" +
         std::to_string(steps) + " / " + core::stepFuseName(fuse);
}

int runMutations(const std::vector<Scheme>& schemes,
                 const std::vector<int>& stepCounts,
                 const std::vector<StepFuse>& fuses, double dt, int nSeeds,
                 bool json, std::vector<std::string>& jsonRows) {
  using analysis::mutate::StepMutation;
  int failures = 0;
  int executed = 0;
  int skipped = 0;
  for (const Scheme scheme : schemes) {
    for (const int steps : stepCounts) {
      const core::StepProgram prog =
          solvers::buildStepProgram(scheme, dt, steps);
      for (const StepFuse fuse : fuses) {
        for (std::uint64_t seed = 0;
             seed < static_cast<std::uint64_t>(nSeeds); ++seed) {
          const StepMutation muts[] = {
              analysis::mutate::dropStepExchange(prog, fuse, seed),
              analysis::mutate::shallowStepHalo(prog, fuse, seed),
              analysis::mutate::reorderStepOps(prog, fuse, seed),
              analysis::mutate::skewStepCoeff(prog, fuse, seed),
              analysis::mutate::deepenStepHalo(prog, fuse, seed),
          };
          for (const StepMutation& mut : muts) {
            if (!mut.valid) {
              ++skipped; // program offered no candidate for this class
              continue;
            }
            ++executed;
            analysis::StepCheckOptions opts;
            if (mut.useReference) {
              opts.reference = &mut.reference;
            }
            const auto rep = analysis::checkStepProgram(mut.prog, fuse,
                                                        mut.plan, opts);
            bool caught = false;
            std::string got;
            if (mut.expectAdvisory) {
              // Over-deep halo: S1 must still hold, and S3 must price the
              // width back down to the proven minimum.
              got = rep.ok() ? "clean report" : "diagnostics";
              for (const analysis::StepAdvisory& a : rep.advisories) {
                if (a.kind == analysis::StepNoteKind::OverDeepHalo &&
                    a.op == mut.witnessOp &&
                    a.minWidth == mut.expectMinWidth) {
                  caught = rep.ok();
                  break;
                }
              }
            } else {
              got = rep.ok() ? "clean report" : rep.diagnostics[0].message();
              caught = !rep.ok() &&
                       rep.diagnostics[0].kind == mut.expect &&
                       rep.diagnostics[0].op == mut.witnessOp;
            }
            if (!caught) {
              ++failures;
              std::cerr << "MISSED MUTATION ["
                        << comboTag(scheme, steps, fuse) << ", seed "
                        << seed << "]: " << mut.what << "\n  expected ";
              if (mut.expectAdvisory) {
                std::cerr << "clean report + over-deep-halo advisory at op "
                          << mut.witnessOp << " with proven minimum "
                          << mut.expectMinWidth;
              } else {
                std::cerr << analysis::stepDiagKindName(mut.expect)
                          << " at op " << mut.witnessOp;
              }
              std::cerr << ", got " << got << "\n";
            }
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

} // namespace

int main(int argc, char** argv) {
  harness::Args args;
  args.addString("scheme", "all",
                 "RK scheme to prove: all, euler, midpoint, ssprk3, rk4");
  args.addString("fuse", "all",
                 "fuse mode to prove: all, fused, or commavoid (eager, "
                 "the third mode, is the reference semantics)");
  args.addInt("nsteps", 0,
              "steps per program (0 = sweep 1- and 3-step programs)");
  args.addInt("boxsize", 16, "box side N for witness cells and pricing");
  args.addInt("nboxes", 8, "boxes, for the over-deep-halo recompute price");
  args.addBool("strict", "exit 1 unless every program verifies clean");
  args.addBool("json", "machine-readable JSON output");
  args.addBool("mutate",
               "run the seeded step miscompilations and require the "
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

  const int nSteps = static_cast<int>(args.getInt("nsteps"));
  const int boxSize = static_cast<int>(args.getInt("boxsize"));
  const int nBoxes = static_cast<int>(args.getInt("nboxes"));
  if (nSteps < 0 || boxSize < 8 || nBoxes < 1) {
    std::cerr << "error: need --nsteps >= 0, --boxsize >= 8 (two ghost "
                 "layers plus a non-empty interior), --nboxes >= 1\n";
    return 1;
  }
  std::vector<Scheme> schemes;
  const std::string& schemeArg = args.getString("scheme");
  if (schemeArg == "all") {
    schemes.assign(std::begin(solvers::kSchemes),
                   std::end(solvers::kSchemes));
  } else {
    Scheme s{};
    if (!solvers::parseScheme(schemeArg, s)) {
      std::cerr << "error: --scheme must be all, euler, midpoint, ssprk3, "
                   "or rk4 (got '"
                << schemeArg << "')\n";
      return 1;
    }
    schemes = {s};
  }
  std::vector<StepFuse> fuses;
  const std::string& fuseArg = args.getString("fuse");
  if (fuseArg == "all") {
    fuses.assign(std::begin(kCheckedFuses), std::end(kCheckedFuses));
  } else {
    StepFuse f{};
    if (!core::parseStepFuse(fuseArg, f) || f == StepFuse::Eager) {
      std::cerr << "error: --fuse must be all, fused, or commavoid "
                   "(got '"
                << fuseArg << "')\n";
      return 1;
    }
    fuses = {f};
  }
  const std::vector<int> stepCounts =
      nSteps == 0 ? std::vector<int>{1, 3} : std::vector<int>{nSteps};
  const double dt = 1e-3;
  const bool json = args.getBool("json");

  std::vector<ProgramRun> runs;
  for (const Scheme scheme : schemes) {
    for (const int steps : stepCounts) {
      const core::StepProgram prog =
          solvers::buildStepProgram(scheme, dt, steps);
      for (const StepFuse fuse : fuses) {
        analysis::StepCheckOptions opts;
        opts.boxSize = boxSize;
        opts.nBoxes = nBoxes;
        ProgramRun pr;
        pr.scheme = solvers::schemeName(scheme);
        pr.steps = steps;
        pr.fuse = core::stepFuseName(fuse);
        pr.ops = prog.ops.size();
        pr.report = analysis::checkStepProgram(prog, fuse, opts);
        runs.push_back(std::move(pr));
      }
    }
  }

  int diagnostics = 0;
  std::vector<std::string> jsonRows;
  if (json) {
    std::string row = "  \"programs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const ProgramRun& pr = runs[i];
      if (i > 0) {
        row += ", ";
      }
      row += "{\"scheme\": \"" + jsonEscape(pr.scheme) + "\"";
      row += ", \"steps\": " + std::to_string(pr.steps);
      row += ", \"fuse\": \"" + pr.fuse + "\"";
      row += ", \"ops\": " + std::to_string(pr.ops);
      row += ", \"planDepth\": " + std::to_string(pr.report.planDepth);
      row += ", \"exprs\": " + std::to_string(pr.report.exprCount);
      row += ", \"diagnostics\": " +
             std::to_string(pr.report.diagnostics.size());
      row += ", \"advisories\": " +
             std::to_string(pr.report.advisories.size());
      row += "}";
    }
    row += "]";
    jsonRows.push_back(std::move(row));
  } else {
    std::cout << "proving step programs equivalent to eager semantics "
                 "(witness boxes "
              << nBoxes << " x " << boxSize << "^3)\n\n";
    harness::Table table({"scheme", "steps", "fuse", "ops", "depth",
                          "exprs", "diags", "advisories"});
    for (const ProgramRun& pr : runs) {
      table.addRow({pr.scheme, std::to_string(pr.steps), pr.fuse,
                    std::to_string(pr.ops),
                    std::to_string(pr.report.planDepth),
                    std::to_string(pr.report.exprCount),
                    pr.report.ok()
                        ? "-"
                        : std::to_string(pr.report.diagnostics.size()),
                    std::to_string(pr.report.advisories.size())});
    }
    table.print(std::cout);
  }
  for (const ProgramRun& pr : runs) {
    diagnostics += static_cast<int>(pr.report.diagnostics.size());
    for (const analysis::StepDiagnostic& d : pr.report.diagnostics) {
      std::cerr << "STEP [" << pr.scheme << " x" << pr.steps << " / "
                << pr.fuse << "]: " << d.message() << "\n";
    }
    for (const analysis::StepAdvisory& a : pr.report.advisories) {
      std::cerr << "note [" << pr.scheme << " x" << pr.steps << " / "
                << pr.fuse << "]: " << a.message() << "\n";
    }
  }

  int mutationFailures = 0;
  if (args.getBool("mutate")) {
    mutationFailures =
        runMutations(schemes, stepCounts, fuses, dt,
                     static_cast<int>(args.getInt("seeds")), json,
                     jsonRows);
  }

  if (json) {
    std::cout << "{\n";
    for (std::size_t i = 0; i < jsonRows.size(); ++i) {
      std::cout << jsonRows[i] << (i + 1 < jsonRows.size() ? ",\n" : "\n");
    }
    std::cout << "}\n";
  }

  // Missed mutations are self-test failures and always fail; diagnostics
  // on the real programs fail under --strict.
  const bool failed =
      mutationFailures > 0 || (args.getBool("strict") && diagnostics > 0);
  if (failed) {
    std::cerr << "\nstepcheck: FAILED (" << diagnostics
              << " diagnostic(s), " << mutationFailures
              << " missed mutation(s))\n";
    return 1;
  }
  if (!json) {
    std::cout << "\nstepcheck: all equivalent over " << runs.size()
              << " program(s)\n";
  }
  return 0;
}
