// Motivation experiment (Sec. I/II): measured ghost-exchange cost vs box
// size on a fixed-size domain. Complements Fig. 1's cell-count ratios
// with actual copied bytes and wall time per exchange — the overhead that
// shrinks as boxes grow, which is why the paper pushes toward 128^3.

#include <iostream>

#include "common.hpp"
#include "harness/csv.hpp"
#include "harness/table.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"

using namespace fluxdiv;

int main(int argc, char** argv) {
  harness::Args args;
  bench::addCommonOptions(args);
  try {
    if (!args.parse(argc, argv)) {
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  // LevelData::exchange() copies serially, so a thread count would be
  // silently ignored: it is refused.
  if (!args.getIntList("threads").empty()) {
    std::cerr << "error: --threads is not supported here; the exchange "
                 "is serial\n";
    return 1;
  }

  bench::printHeader("Ghost-exchange cost vs box size", args);
  const int nWork = bench::workUnits(args);
  const int reps = static_cast<int>(args.getInt("reps"));

  harness::Table table({"box size", "boxes", "ghost cells/valid",
                        "bytes/exchange", "seconds/exchange"});
  harness::CsvWriter csv(args.getString("csv"),
                         {"box_size", "boxes", "ghost_ratio", "bytes",
                          "seconds"});

  for (int n : {16, 32, 64, 128}) {
    bench::Problem problem(n, nWork);
    grid::LevelData& phi = problem.phi0;
    // Time the exchange (the runner never re-exchanges, so this is the
    // isolated ghost cost). LevelData::exchange() copies serially; the
    // step graphs run the same copies as tasks.
    double best = 0.0;
    for (int r = 0; r < reps + 1; ++r) {
      harness::Timer t;
      phi.exchange();
      const double s = t.seconds();
      if (r == 1 || (r > 1 && s < best)) {
        best = s;
      }
    }
    const double ghostRatio =
        double(phi.totalCellsAllocated() - phi.totalCellsValid()) /
        double(phi.totalCellsValid());
    table.addRow({std::to_string(n), std::to_string(phi.size()),
                  harness::formatDouble(ghostRatio),
                  harness::formatBytes(phi.exchangeBytes()),
                  harness::formatSeconds(best)});
    csv.writeRow({std::to_string(n), std::to_string(phi.size()),
                  harness::formatDouble(ghostRatio),
                  std::to_string(phi.exchangeBytes()),
                  harness::formatSeconds(best)});
  }
  table.print(std::cout);

  std::cout << "\npaper shape check: ghost volume (and exchange time) "
               "drops steeply\nwith box size — the overhead that motivates "
               "running 128^3 boxes at all.\n";
  return 0;
}
