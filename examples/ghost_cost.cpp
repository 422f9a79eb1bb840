// The motivation demo (paper Sec. I, Fig. 1): on a fixed-size domain,
// smaller boxes mean exponentially more ghost cells — more memory and
// more exchange traffic per step — while larger boxes shift the problem
// to on-node scheduling (which the core library then solves). This
// example prints the full cost picture per box size: memory overhead,
// exchange volume, exchange time, and compute time of one step. The
// exchange (LevelData::exchange()) is serial; --threads sets the workers
// of the compute column only.
//
//   ./examples/ghost_cost [--domain 128] [--threads T]

#include <iostream>

#include "core/runner.hpp"
#include "harness/args.hpp"
#include "harness/machine.hpp"
#include "harness/table.hpp"
#include "harness/timer.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"

using namespace fluxdiv;

int main(int argc, char** argv) {
  harness::Args args;
  args.addInt("domain", 128, "domain side length (power of two >= 32)");
  args.addInt("threads", harness::queryMachine().logicalCores,
              "worker threads of the compute column (the exchange is "
              "serial)");
  try {
    if (!args.parse(argc, argv)) {
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  const int dom = static_cast<int>(args.getInt("domain"));
  const int threads = static_cast<int>(args.getInt("threads"));

  std::cout << "ghost-cell economics on a " << dom
            << "^3 domain (serial exchange, compute on " << threads
            << " thread(s))\n\n";

  harness::Table table({"box size", "boxes", "memory overhead",
                        "exchange volume", "exchange time (serial)",
                        "compute time (best OT)"});

  for (int n : {16, 32, 64, 128}) {
    if (n > dom) {
      continue;
    }
    grid::ProblemDomain domain(grid::Box::cube(dom));
    grid::DisjointBoxLayout layout(domain, n);
    grid::LevelData phi0(layout, kernels::kNumComp, kernels::kNumGhost);
    grid::LevelData phi1(layout, kernels::kNumComp, kernels::kNumGhost);
    kernels::initializeExemplar(phi0);

    harness::Timer tx;
    phi0.exchange();
    const double exchangeSecs = tx.seconds();

    const auto cfg = core::makeOverlapped(
        core::IntraTileSchedule::ShiftFuse, std::min(8, n),
        n >= 64 ? core::ParallelGranularity::WithinBox
                : core::ParallelGranularity::OverBoxes);
    core::FluxDivRunner runner(cfg, threads);
    runner.run(phi0, phi1); // warm-up
    for (std::size_t b = 0; b < phi1.size(); ++b) {
      phi1[b].setVal(0.0);
    }
    harness::Timer tc;
    runner.run(phi0, phi1);
    const double computeSecs = tc.seconds();

    const double overhead = 100.0 *
                            double(phi0.totalCellsAllocated() -
                                   phi0.totalCellsValid()) /
                            double(phi0.totalCellsValid());
    table.addRow({std::to_string(n), std::to_string(layout.size()),
                  harness::formatDouble(overhead, 1) + " %",
                  harness::formatBytes(phi0.exchangeBytes()),
                  harness::formatSeconds(exchangeSecs),
                  harness::formatSeconds(computeSecs)});
  }
  table.print(std::cout);
  std::cout << "\nlarger boxes slash the exchange overhead; the inter-loop\n"
               "schedules in src/core make their compute side scale too.\n";
  return 0;
}
