// The paper's study as a tool: run every registered inter-loop scheduling
// variant on a problem of your size/thread count and print a ranked
// table — which schedule should your PDE code use on this machine?
//
//   ./examples/variant_explorer [--boxsize N] [--threads T] [--reps R]

#include <algorithm>
#include <iostream>
#include <vector>

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
  args.addInt("boxsize", 64, "box side length");
  args.addInt("nboxes", 2, "boxes along x (domain = nboxes*N x N x N)");
  args.addInt("threads", harness::queryMachine().logicalCores,
              "worker threads");
  args.addInt("reps", 3, "repetitions (minimum time reported)");
  args.addBool("extensions",
               "also explore the beyond-paper axes (hybrid granularity, "
               "pencil/slab tiles, Morton order)");
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
  const int reps = static_cast<int>(args.getInt("reps"));
  const bool extensions = args.getBool("extensions");

  harness::printMachineReport(std::cout, harness::queryMachine());
  grid::ProblemDomain domain(grid::Box(
      grid::IntVect::zero(), grid::IntVect(n * nb - 1, n - 1, n - 1)));
  grid::DisjointBoxLayout layout(domain, n);
  grid::LevelData phi0(layout, kernels::kNumComp, kernels::kNumGhost);
  grid::LevelData phi1(layout, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(phi0);
  std::cout << "exploring " << core::enumerateVariants(n, extensions).size()
            << " variants on " << layout.size() << " box(es) of " << n
            << "^3 with " << threads << " thread(s)\n\n";

  struct Result {
    core::VariantConfig cfg;
    double seconds;
    std::size_t tempBytes;
  };
  std::vector<Result> results;
  for (const core::VariantConfig& cfg :
       core::enumerateVariants(n, extensions)) {
    core::FluxDivRunner runner(cfg, threads);
    double best = 0.0;
    for (int r = 0; r < reps + 1; ++r) { // first iteration = warm-up
      for (std::size_t b = 0; b < phi1.size(); ++b) {
        phi1[b].setVal(0.0);
      }
      harness::Timer t;
      runner.run(phi0, phi1);
      const double s = t.seconds();
      if (r == 1 || (r > 1 && s < best)) {
        best = s;
      }
    }
    results.push_back({cfg, best, runner.maxPeakWorkspaceBytes()});
    std::cerr << "  " << cfg.name() << ": " << harness::formatSeconds(best)
              << "s\n";
  }

  std::sort(results.begin(), results.end(),
            [](const Result& a, const Result& b) {
              return a.seconds < b.seconds;
            });

  harness::Table table(
      {"rank", "schedule", "seconds", "vs best", "temp/thread"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.addRow({std::to_string(i + 1), results[i].cfg.name(),
                  harness::formatSeconds(results[i].seconds),
                  harness::formatDouble(
                      results[i].seconds / results.front().seconds, 2) +
                      "x",
                  harness::formatBytes(results[i].tempBytes)});
  }
  table.print(std::cout);
  std::cout << "\nrecommendation for this machine/problem: "
            << results.front().cfg.name() << '\n';
  return 0;
}
