// End-to-end application of the whole library: auto-tune the inter-loop
// schedule for this machine and problem shape (the paper's Sec. VII
// direction), then run a time-dependent finite-volume solve with the
// winner using the RK4 integrator, with a wall-clock comparison against
// the untuned baseline schedule.
//
//   ./examples/autotuned_solver [--boxsize N] [--steps S] [--threads T]

#include <iostream>

#include "harness/args.hpp"
#include "harness/machine.hpp"
#include "harness/table.hpp"
#include "harness/timer.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "solvers/integrator.hpp"
#include "tuner/autotuner.hpp"

using namespace fluxdiv;

namespace {

double solveWith(const core::VariantConfig& cfg, int threads,
                 const grid::DisjointBoxLayout& layout, int steps,
                 grid::Real dt, grid::LevelData& out) {
  kernels::initializeExemplar(out);
  solvers::FluxDivRhs rhs(cfg, threads);
  solvers::TimeIntegrator integ(solvers::Scheme::RK4, layout);
  harness::Timer t;
  for (int s = 0; s < steps; ++s) {
    integ.advance(out, dt, rhs);
  }
  return t.seconds();
}

} // namespace

int main(int argc, char** argv) {
  harness::Args args;
  args.addInt("boxsize", 64, "box side length");
  args.addInt("nboxes", 2, "boxes per direction");
  args.addInt("steps", 5, "RK4 time steps");
  args.addDouble("dt", 0.05, "time step");
  args.addInt("threads", harness::queryMachine().logicalCores,
              "worker threads");
  try {
    if (!args.parse(argc, argv)) {
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  const int n = static_cast<int>(args.getInt("boxsize"));
  const int nb = static_cast<int>(args.getInt("nboxes"));
  const int steps = static_cast<int>(args.getInt("steps"));
  const auto dt = static_cast<grid::Real>(args.getDouble("dt"));
  const int threads = static_cast<int>(args.getInt("threads"));

  grid::ProblemDomain domain(grid::Box::cube(n * nb));
  grid::DisjointBoxLayout layout(domain, n);

  // Phase 1: tune on a single flux-div evaluation.
  grid::LevelData phi0(layout, kernels::kNumComp, kernels::kNumGhost);
  grid::LevelData phi1(layout, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(phi0);
  tuner::TuneOptions opts;
  opts.threads = threads;
  opts.reps = 2;
  std::cout << "tuning over " << core::enumerateVariants(n).size()
            << " schedule variants...\n";
  harness::Timer tuneTimer;
  const tuner::TuneResult tuned = tuner::autotune(phi0, phi1, opts);
  std::cout << "winner: " << tuned.best.name() << " ("
            << harness::formatSeconds(tuned.bestSeconds) << " s/eval, "
            << tuned.prunedCount << " candidates pruned by the traffic "
            << "model, tuned in "
            << harness::formatSeconds(tuneTimer.seconds()) << " s)\n\n";

  // Phase 2: solve with the winner vs the baseline.
  grid::LevelData uTuned(layout, kernels::kNumComp, kernels::kNumGhost);
  grid::LevelData uBase(layout, kernels::kNumComp, kernels::kNumGhost);
  const double tunedSecs =
      solveWith(tuned.best, threads, layout, steps, dt, uTuned);
  const double baseSecs = solveWith(
      core::makeBaseline(core::ParallelGranularity::OverBoxes), threads,
      layout, steps, dt, uBase);

  harness::Table table({"schedule", "RK4 steps", "wall (s)", "s/step"});
  table.addRow({tuned.best.name(), std::to_string(steps),
                harness::formatSeconds(tunedSecs),
                harness::formatSeconds(tunedSecs / steps)});
  table.addRow({"Baseline-CLO: P>=Box", std::to_string(steps),
                harness::formatSeconds(baseSecs),
                harness::formatSeconds(baseSecs / steps)});
  table.print(std::cout);

  const grid::Real diff = grid::LevelData::maxAbsDiffValid(uTuned, uBase);
  std::cout << "\nmax |tuned - baseline| after " << steps
            << " RK4 steps: " << diff << '\n';
  return diff < 1e-10 ? 0 : 1;
}
