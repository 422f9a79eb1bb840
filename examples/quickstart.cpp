// Quickstart: build a periodic level, evaluate the CFD flux-divergence
// exemplar with the baseline schedule and with the paper's winning
// overlapped-tile schedule, and check they agree.
//
//   ./examples/quickstart [--boxsize N] [--threads T]

#include <iostream>

#include "core/runner.hpp"
#include "harness/args.hpp"
#include "harness/machine.hpp"
#include "harness/timer.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"

using namespace fluxdiv;

int main(int argc, char** argv) {
  harness::Args args;
  args.addInt("boxsize", 64, "box side length");
  args.addInt("nboxes", 2, "boxes per direction");
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
  const int threads = static_cast<int>(args.getInt("threads"));

  // 1. A periodic domain decomposed into boxes, with ghost cells sized for
  //    the 4th-order face stencil.
  grid::ProblemDomain domain(grid::Box::cube(n * nb));
  grid::DisjointBoxLayout layout(domain, n);
  grid::LevelData phi0(layout, kernels::kNumComp, kernels::kNumGhost);
  grid::LevelData phi1(layout, kernels::kNumComp, kernels::kNumGhost);

  // 2. Smooth initial data; initializeExemplar also exchanges ghosts.
  kernels::initializeExemplar(phi0);
  std::cout << "domain " << domain.box() << " in " << layout.size()
            << " boxes of " << n << "^3, " << threads << " thread(s)\n";

  // 3. Evaluate with the series-of-loops baseline (Chombo's idiom).
  core::FluxDivRunner baseline(
      core::makeBaseline(core::ParallelGranularity::OverBoxes), threads);
  harness::Timer t1;
  baseline.run(phi0, phi1);
  std::cout << "Baseline-CLO: P>=Box        " << t1.seconds() << " s, "
            << "temp/thread "
            << baseline.maxPeakWorkspaceBytes() / 1024 << " KiB\n";

  // 4. Evaluate with the paper's winner: shifted/fused overlapped tiles.
  grid::LevelData phi1b(layout, kernels::kNumComp, kernels::kNumGhost);
  core::FluxDivRunner best(
      core::makeOverlapped(core::IntraTileSchedule::ShiftFuse, 8,
                           core::ParallelGranularity::WithinBox),
      threads);
  harness::Timer t2;
  best.run(phi0, phi1b);
  std::cout << "Shift-Fuse OT-8: P<Box      " << t2.seconds() << " s, "
            << "temp/thread " << best.maxPeakWorkspaceBytes() / 1024
            << " KiB\n";

  // 5. Same answer, different schedule.
  const grid::Real diff = grid::LevelData::maxAbsDiffValid(phi1, phi1b);
  std::cout << "max |baseline - overlapped| = " << diff << '\n';
  return diff < 1e-12 ? 0 : 1;
}
