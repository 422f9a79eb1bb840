// The whole study as one artifact binary: reproduces the paper's
// experiment suite end-to-end on the host machine and writes a markdown
// report (plus CSVs) to an output directory. This is the "repro script"
// a reader runs once to regenerate every table/figure the repository
// covers; the individual bench_* binaries expose the same experiments
// with finer control.
//
//   ./tools/fluxdiv_study [--outdir study-out] [--threads 1,2,...]
//                         [--nboxes128 1] [--reps 3] [--quick]

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>

#include "grid/norms.hpp"
#include "harness/args.hpp"
#include "harness/machine.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "memmodel/traffic_model.hpp"
#include "tuner/autotuner.hpp"

#include "../bench/common.hpp"

using namespace fluxdiv;
using core::ComponentLoop;
using core::IntraTileSchedule;
using core::ParallelGranularity;
using core::VariantConfig;

namespace {

void writeTable(std::ofstream& md, harness::Table& table) {
  md << "```\n";
  table.print(md);
  md << "```\n\n";
}

} // namespace

int main(int argc, char** argv) {
  harness::Args args;
  args.addString("outdir", "study-out", "report/CSV output directory");
  args.addIntList("threads", {}, "thread sweep (default: up to cores)");
  args.addInt("nboxes128", 1, "work units of 128^3 cells (paper: 24)");
  args.addInt("reps", 3, "repetitions per timing");
  args.addBool("quick", "restrict to box sizes 16/64 for a fast pass");
  try {
    if (!args.parse(argc, argv)) {
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  const std::filesystem::path outdir(args.getString("outdir"));
  std::filesystem::create_directories(outdir);
  std::ofstream md(outdir / "REPORT.md");
  if (!md) {
    std::cerr << "cannot write to " << outdir << '\n';
    return 1;
  }

  const int reps = static_cast<int>(args.getInt("reps"));
  const int nWork = static_cast<int>(args.getInt("nboxes128"));
  std::vector<int> threads;
  for (auto t : args.getIntList("threads")) {
    threads.push_back(static_cast<int>(t));
  }
  const auto machine = harness::queryMachine();
  if (threads.empty()) {
    for (auto t : harness::defaultThreadSweep(machine.logicalCores)) {
      threads.push_back(static_cast<int>(t));
    }
  }
  const std::vector<int> boxSizes =
      args.getBool("quick") ? std::vector<int>{16, 64}
                            : std::vector<int>{16, 32, 64, 128};

  md << "# fluxdiv study report\n\nReproduction of Olschanowsky et al., "
        "SC14.\n\n## Machine\n\n```\n";
  harness::printMachineReport(md, machine);
  md << "```\n\nproblem: " << nWork << " work unit(s) of 128^3 cells; "
     << "timings are min of " << reps << " reps.\n\n";
  std::cout << "study running; report -> " << (outdir / "REPORT.md")
            << '\n';

  // ---- Fig. 1: ghost overhead --------------------------------------
  {
    md << "## Fig. 1 — ghost-cell overhead vs box size\n\n";
    harness::Table t({"N", "ratio (D=3,g=2)", "ratio (D=3,g=5)",
                      "exchange bytes/box"});
    for (int n : boxSizes) {
      grid::DisjointBoxLayout dbl(
          grid::ProblemDomain(grid::Box::cube(128)), n);
      grid::LevelData level(dbl, kernels::kNumComp, 2);
      const double measured = double(level.totalCellsAllocated()) /
                              double(level.totalCellsValid());
      const double g5 = std::pow(1.0 + 10.0 / n, 3);
      t.addRow({std::to_string(n), harness::formatDouble(measured),
                harness::formatDouble(g5),
                harness::formatBytes(level.exchangeBytes() /
                                     level.size())});
    }
    writeTable(md, t);
    std::cout << "  [1/5] ghost overhead done\n";
  }

  // ---- Figs. 2-4 + 10-12: scaling of highlighted schedules ----------
  {
    md << "## Figs. 2-4 / 10-12 — highlighted schedules vs threads "
          "(N=128 work)\n\n";
    const struct {
      int boxSize;
      VariantConfig cfg;
    } series[] = {
        {16, core::makeBaseline(ParallelGranularity::OverBoxes)},
        {16, core::makeShiftFuse(ParallelGranularity::OverBoxes)},
        {128, core::makeBaseline(ParallelGranularity::OverBoxes)},
        {128, core::makeShiftFuse(ParallelGranularity::OverBoxes)},
        {128, core::makeBlockedWF(16, ParallelGranularity::WithinBox,
                                  ComponentLoop::Outside)},
        {128, core::makeOverlapped(IntraTileSchedule::ShiftFuse, 8,
                                   ParallelGranularity::WithinBox)},
        {128, core::makeOverlapped(IntraTileSchedule::ShiftFuse, 16,
                                   ParallelGranularity::OverBoxes)},
    };
    std::vector<std::string> header = {"schedule", "N"};
    for (int t : threads) {
      header.push_back("t=" + std::to_string(t));
    }
    harness::Table table(header);
    for (const auto& s : series) {
      bench::Problem problem(s.boxSize, nWork);
      std::vector<std::string> row = {s.cfg.name(),
                                      std::to_string(s.boxSize)};
      for (int t : threads) {
        row.push_back(harness::formatSeconds(
            bench::timeVariant(s.cfg, problem, t, reps)));
      }
      table.addRow(std::move(row));
    }
    writeTable(md, table);
    std::cout << "  [2/5] scaling series done\n";
  }

  // ---- Fig. 9: best per box size, full sweep -------------------------
  {
    md << "## Fig. 9 — best schedule per box size (full variant "
          "sweep)\n\n";
    const int t = threads.back();
    harness::Table table({"N", "best P>=Box", "seconds", "best P<Box",
                          "seconds"});
    for (int n : boxSizes) {
      bench::Problem problem(n, nWork);
      double best[2] = {std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::infinity()};
      std::string names[2];
      for (const VariantConfig& cfg : core::enumerateVariants(n)) {
        const double secs = bench::timeVariant(cfg, problem, t, reps);
        const int g = cfg.par == ParallelGranularity::OverBoxes ? 0 : 1;
        if (secs < best[g]) {
          best[g] = secs;
          names[g] = cfg.name();
        }
      }
      table.addRow({std::to_string(n), names[0],
                    harness::formatSeconds(best[0]), names[1],
                    harness::formatSeconds(best[1])});
    }
    writeTable(md, table);
    std::cout << "  [3/5] full sweep done\n";
  }

  // ---- Table I + Sec. VI-B: footprints and traffic -------------------
  {
    md << "## Table I + Sec. VI-B — temporaries and modeled DRAM "
          "traffic (N=64)\n\n";
    const std::size_t llc = 6 * 1024 * 1024; // the paper's desktop LLC
    harness::Table table(
        {"schedule", "measured temp/thread", "model B/cell @6MiB LLC"});
    bench::Problem problem(64, 1);
    for (const VariantConfig& cfg :
         {core::makeBaseline(ParallelGranularity::OverBoxes),
          core::makeShiftFuse(ParallelGranularity::OverBoxes,
                              ComponentLoop::Inside),
          core::makeBlockedWF(16, ParallelGranularity::WithinBox,
                              ComponentLoop::Inside),
          core::makeOverlapped(IntraTileSchedule::ShiftFuse, 16,
                               ParallelGranularity::WithinBox)}) {
      core::FluxDivRunner runner(cfg, threads.back());
      problem.resetOutput();
      runner.run(problem.phi0, problem.phi1);
      table.addRow(
          {cfg.name(),
           harness::formatBytes(runner.maxPeakWorkspaceBytes()),
           harness::formatDouble(
               memmodel::estimateTraffic(cfg, 64, llc).bytesPerCell, 1)});
    }
    writeTable(md, table);
    std::cout << "  [4/5] footprints/traffic done\n";
  }

  // ---- Sec. VII: auto-tuned recommendation ---------------------------
  {
    md << "## Sec. VII — auto-tuned schedule for this machine\n\n";
    harness::Table table({"N", "winner", "s/eval", "pruned"});
    for (int n : boxSizes) {
      bench::Problem problem(n, nWork);
      tuner::TuneOptions opts;
      opts.threads = threads.back();
      opts.reps = reps;
      const auto result = tuner::autotune(problem.phi0, problem.phi1, opts);
      table.addRow({std::to_string(n), result.best.name(),
                    harness::formatSeconds(result.bestSeconds),
                    std::to_string(result.prunedCount)});
    }
    writeTable(md, table);
    std::cout << "  [5/5] auto-tuning done\n";
  }

  md << "---\ngenerated by tools/fluxdiv_study\n";
  std::cout << "report written to " << (outdir / "REPORT.md") << '\n';
  return 0;
}
