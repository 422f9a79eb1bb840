// Figs. 2-4 reproduction: execution time vs thread count for
//   - Baseline,   P>=Box, N=16   (the "Chombo today" good case)
//   - Shift-Fuse, P>=Box, N=16   (small boxes improve a bit more)
//   - Baseline,   P>=Box, N=128  (the poor-scaling motivation)
//   - the best shifted/fused overlapped-tile variants at N=128
// on an equal-work problem. The paper ran one figure per machine
// (Magny-Cours / Ivy Bridge / Sandy Bridge); this binary produces the
// same series for whatever node it runs on.

#include <iostream>

#include "common.hpp"
#include "harness/csv.hpp"
#include "harness/table.hpp"

using namespace fluxdiv;
using core::IntraTileSchedule;
using core::ParallelGranularity;
using core::VariantConfig;

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

  bench::printHeader("Figs. 2-4: thread scaling, N=16 vs N=128", args);
  const int nWork = bench::workUnits(args);
  const int reps = static_cast<int>(args.getInt("reps"));
  const auto threads = bench::threadSweep(args);

  struct Series {
    int boxSize;
    VariantConfig cfg;
  };
  const Series series[] = {
      {16, core::makeBaseline(ParallelGranularity::OverBoxes)},
      {16, core::makeShiftFuse(ParallelGranularity::OverBoxes)},
      {128, core::makeBaseline(ParallelGranularity::OverBoxes)},
      {128, core::makeOverlapped(IntraTileSchedule::ShiftFuse, 16,
                                 ParallelGranularity::OverBoxes)},
      {128, core::makeOverlapped(IntraTileSchedule::ShiftFuse, 8,
                                 ParallelGranularity::WithinBox)},
  };

  std::vector<std::string> header = {"schedule", "N"};
  for (int t : threads) {
    header.push_back("t=" + std::to_string(t));
  }
  harness::Table table(header);
  harness::CsvWriter csv(args.getString("csv"),
                         {"schedule", "box_size", "threads", "seconds"});
  bench::JsonWriter json(args.getString("json"));

  for (const Series& s : series) {
    bench::Problem problem(s.boxSize, nWork);
    std::vector<std::string> row = {s.cfg.name(),
                                    std::to_string(s.boxSize)};
    for (int t : threads) {
      const double secs = bench::timeVariant(s.cfg, problem, t, reps);
      row.push_back(harness::formatSeconds(secs));
      csv.writeRow({s.cfg.name(), std::to_string(s.boxSize),
                    std::to_string(t), harness::formatSeconds(secs)});
      json.record({{"schedule", s.cfg.name()}},
                  {{"box_size", static_cast<double>(s.boxSize)},
                   {"threads", static_cast<double>(t)},
                   {"seconds", secs}});
      std::cerr << "  " << s.cfg.name() << " N=" << s.boxSize << " t=" << t
                << ": " << harness::formatSeconds(secs) << "s\n";
    }
    table.addRow(std::move(row));
  }

  std::cout << '\n';
  table.print(std::cout);
  std::cout
      << "\npaper shape check (Figs. 2-4): Baseline N=16 scales nearly\n"
         "ideally; Baseline N=128 stops scaling after a few threads;\n"
         "Shift-Fuse + overlapped tiling restores N=128 to roughly the\n"
         "N=16 execution time at full thread count.\n";

  return 0;
}
