// Whole-RK-step fusion bench (docs/perf.md "Step fusion"): the fused
// lazy step graph (core/stepgraph) against the eager per-stage loop,
// across schemes, box sizes, and thread counts. Fused graphs let a
// stage-(i+1) tile task start as soon as the stage-i tasks it reads have
// run, and amortize one pool dispatch over the whole step. Both modes are
// bit-identical (tests/solvers), so this bench measures pure scheduling.
//
//   ./bench/bench_rk_step [--scheme all] [--fuse all] [--policy parallel]
//                         [--boxsize 16,32] [--nboxes 8] [--steps 4]
//                         [--window 1] [--threads ...] [--reps 5]
//                         [--csv out.csv] [--json out.json]
//
// The level is --nboxes periodic boxes of side --boxsize in a near-cubic
// grid (cubicLayout): --boxsize 16 --nboxes 512 is benchsuite box16's
// 8 x 8 x 8 level.
// --fuse all means eager and fused; the "vs fused" column is the fused
// step time over each row's (>1 = faster than fused).
// --window W > 1 captures W consecutive time steps as one task graph
// under fused (cross-timestep fusion). Fused rows also give the captured
// graph's tasks, edges and exchange-copy tasks per time step
// (TimeIntegrator::stepStats()); eager rows have no graph.
// Every row also carries the utilization of its timed reps: process CPU
// seconds over (wall seconds x threads). A row near 1/threads ran with
// all its threads on one CPU (or, for eager rows, serially: the eager
// reference is one thread).
//
// BENCH_rkstep.json in the repo root holds this bench's committed rows,
// the measurements docs/perf.md "Step fusion" cites.

#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "harness/csv.hpp"
#include "harness/table.hpp"
#include "harness/timer.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "solvers/integrator.hpp"

using namespace fluxdiv;

namespace {

std::vector<solvers::Scheme> parseSchemeList(const std::string& text) {
  std::vector<solvers::Scheme> out;
  if (text == "all") {
    out.assign(std::begin(solvers::kSchemes),
               std::end(solvers::kSchemes));
    return out;
  }
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    solvers::Scheme s{};
    if (!solvers::parseScheme(item, s)) {
      throw std::invalid_argument("unknown scheme '" + item + "'");
    }
    out.push_back(s);
  }
  return out;
}

std::vector<core::StepFuse> parseFuseList(const std::string& text) {
  std::vector<core::StepFuse> out;
  if (text == "all") {
    out.assign(std::begin(core::kStepFuseModes),
               std::end(core::kStepFuseModes));
    return out;
  }
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    core::StepFuse f{};
    if (!core::parseStepFuse(item, f)) {
      throw std::invalid_argument("unknown fuse mode '" + item + "'");
    }
    out.push_back(f);
  }
  return out;
}

/// A periodic level of `nBoxes` boxes of side `n`, laid out as a
/// near-cubic grid of boxes: z gets the largest divisor of nBoxes whose
/// cube does not exceed it, y the largest divisor of the rest whose square
/// does not exceed that, x the remainder (8 x 8 x 8 for 512, as benchsuite
/// box16; 3 x 2 x 2 for 12).
grid::DisjointBoxLayout cubicLayout(int n, int nBoxes) {
  const auto largestRoot = [](int m, int power) {
    int best = 1;
    for (int d = 1; d <= m; ++d) {
      long long p = 1;
      for (int i = 0; i < power; ++i) {
        p *= d;
      }
      if (p > m) {
        break;
      }
      if (m % d == 0) {
        best = d;
      }
    }
    return best;
  };
  const int nz = largestRoot(nBoxes, 3);
  const int ny = largestRoot(nBoxes / nz, 2);
  const int nx = nBoxes / nz / ny;
  const grid::Box domain(grid::IntVect::zero(),
                         grid::IntVect(n * nx - 1, n * ny - 1, n * nz - 1));
  return grid::DisjointBoxLayout(grid::ProblemDomain(domain), n);
}

/// One measured row: seconds per step, the utilization of the timed reps,
/// and the captured graph's counts per step (fused only).
struct StepTiming {
  double secs = 0.0;
  double utilization = 0.0;
  bool graph = false;
  double tasks = 0.0;
  double edges = 0.0;
  double exchangeOps = 0.0;
};

/// Min wall seconds per time step over `reps` measurements of `steps`
/// time steps advanced in `window`-step chunks: window 1 times the
/// per-step graphs; window > 1 captures `window` consecutive steps as
/// ONE task graph under fused (cross-timestep fusion). Eager rows call
/// the reference TimeIntegrator::advanceEager() once per step. One
/// warm-up chunk captures the graph outside the timed region.
StepTiming timeStep(solvers::Scheme scheme, core::StepFuse fuse,
                    core::LevelPolicy policy, const core::VariantConfig& cfg,
                    const grid::DisjointBoxLayout& dbl, int threads,
                    int steps, int window, int reps) {
  grid::LevelData u(dbl, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(u);
  solvers::FluxDivRhs rhs(cfg, threads);
  solvers::TimeIntegrator integ(scheme, dbl);
  integ.setLevelPolicy(policy);
  const grid::Real dt = 1e-4;
  const int chunks = std::max(1, steps / window);
  const auto advanceChunk = [&] {
    if (fuse == core::StepFuse::Fused) {
      integ.advanceSteps(u, dt, rhs, window);
      return;
    }
    for (int s = 0; s < window; ++s) {
      integ.advanceEager(u, dt, rhs);
    }
  };
  advanceChunk(); // warm-up: capture + first touch
  double best = 0.0;
  const double cpu0 = harness::processCpuSeconds();
  const harness::Timer wall;
  for (int r = 0; r < reps; ++r) {
    harness::Timer t;
    for (int c = 0; c < chunks; ++c) {
      advanceChunk();
    }
    const double secs = t.seconds() / (chunks * window);
    if (r == 0 || secs < best) {
      best = secs;
    }
  }
  StepTiming out;
  out.secs = best;
  out.utilization = harness::utilization(
      harness::processCpuSeconds() - cpu0, wall.seconds(), threads);
  if (const core::StepGraphStats* st = integ.stepStats()) {
    out.graph = true;
    out.tasks = static_cast<double>(st->taskCount) / window;
    out.edges = static_cast<double>(st->edgeCount) / window;
    out.exchangeOps = static_cast<double>(st->exchangeOps) / window;
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  harness::Args args;
  bench::addCommonOptions(args);
  args.addString("scheme", "all",
                 "comma-separated schemes (euler/midpoint/ssprk3/rk4) "
                 "or 'all'");
  args.addString("fuse", "all",
                 "comma-separated step-fuse modes (eager/fused) or "
                 "'all'");
  args.addString("policy", "parallel",
                 "level policy for the step-graph task granularity "
                 "(sequential/parallel)");
  args.addIntList("boxsize", {16, 32}, "box sides to sweep");
  args.addInt("nboxes", 8, "boxes per level (1 = single-box working set)");
  args.addInt("steps", 4, "time steps per timed measurement");
  args.addInt("window", 1,
              "steps captured per graph (W>1 = cross-timestep fusion)");
  try {
    if (!args.parse(argc, argv)) {
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  // The level is sized by --boxsize and --nboxes; the shared work-unit
  // flags would be silently ignored, so they are refused.
  const char* sizeFlag = args.getBool("paper")                ? "--paper"
                         : args.getInt("nboxes128") != 1 ? "--nboxes128"
                                                         : nullptr;
  if (sizeFlag != nullptr) {
    std::cerr << "error: " << sizeFlag
              << " is not supported here; size the level with --boxsize "
                 "and --nboxes\n";
    return 1;
  }

  std::vector<solvers::Scheme> schemes;
  std::vector<core::StepFuse> fuses;
  core::LevelPolicy policy{};
  try {
    schemes = parseSchemeList(args.getString("scheme"));
    fuses = parseFuseList(args.getString("fuse"));
    if (!core::parseLevelPolicy(args.getString("policy"), policy)) {
      throw std::invalid_argument("unknown policy '" +
                                  args.getString("policy") + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  bench::printHeader("Whole-RK-step fusion: eager loop vs fused step graph",
                     args);
  const int reps = static_cast<int>(args.getInt("reps"));
  const int steps = static_cast<int>(args.getInt("steps"));
  const int window =
      std::max(1, static_cast<int>(args.getInt("window")));
  const int nBoxes = static_cast<int>(args.getInt("nboxes"));
  const std::vector<int> threads = bench::threadSweep(args);
  const core::VariantConfig cfg =
      core::makeShiftFuse(core::ParallelGranularity::WithinBox);

  harness::Table table({"scheme", "boxes", "fuse", "threads", "s/step",
                        "vs fused", "util", "tasks/step", "edges/step",
                        "xchg ops/step"});
  harness::CsvWriter csv(args.getString("csv"),
                         {"scheme", "boxsize", "nboxes", "fuse", "policy",
                          "window", "threads", "seconds_per_step",
                          "utilization", "tasks_per_step", "edges_per_step",
                          "exchange_ops_per_step"});
  bench::JsonWriter json(args.getString("json"));

  for (const solvers::Scheme scheme : schemes) {
    for (const int n : args.getIntList("boxsize")) {
      const grid::DisjointBoxLayout dbl = cubicLayout(n, nBoxes);
      const std::string boxes =
          std::to_string(nBoxes) + "x" + std::to_string(n) + "^3";
      for (const int t : threads) {
        std::vector<StepTiming> rows;
        double fusedSecs = 0.0;
        for (const core::StepFuse fuse : fuses) {
          rows.push_back(timeStep(scheme, fuse, policy, cfg, dbl, t, steps,
                                  window, reps));
          if (fuse == core::StepFuse::Fused) {
            fusedSecs = rows.back().secs;
          }
          std::cerr << "  " << solvers::schemeName(scheme) << " " << boxes
                    << " " << core::stepFuseName(fuse) << " t=" << t
                    << ": " << harness::formatSeconds(rows.back().secs)
                    << "s/step\n";
        }
        for (std::size_t f = 0; f < fuses.size(); ++f) {
          const core::StepFuse fuse = fuses[f];
          const StepTiming& row = rows[f];
          const auto count = [&](double v) {
            return row.graph ? harness::formatDouble(v, 0) : std::string("-");
          };
          table.addRow({solvers::schemeName(scheme), boxes,
                        core::stepFuseName(fuse), std::to_string(t),
                        harness::formatSeconds(row.secs),
                        fusedSecs > 0.0
                            ? harness::formatDouble(fusedSecs / row.secs, 2) +
                                  "x"
                            : "-",
                        harness::formatDouble(row.utilization, 2),
                        count(row.tasks), count(row.edges),
                        count(row.exchangeOps)});
          csv.writeRow({solvers::schemeName(scheme), std::to_string(n),
                        std::to_string(nBoxes),
                        core::stepFuseName(fuse),
                        core::levelPolicyName(policy),
                        std::to_string(window), std::to_string(t),
                        harness::formatSeconds(row.secs),
                        harness::formatDouble(row.utilization, 3),
                        count(row.tasks), count(row.edges),
                        count(row.exchangeOps)});
          std::vector<std::pair<std::string, double>> numbers = {
              {"boxsize", static_cast<double>(n)},
              {"nboxes", static_cast<double>(nBoxes)},
              {"window", static_cast<double>(window)},
              {"threads", static_cast<double>(t)},
              {"seconds_per_step", row.secs},
              {"utilization", row.utilization}};
          if (row.graph) {
            numbers.insert(numbers.end(),
                           {{"tasks_per_step", row.tasks},
                            {"edges_per_step", row.edges},
                            {"exchange_ops_per_step", row.exchangeOps}});
          }
          json.record({{"scheme", solvers::schemeName(scheme)},
                       {"fuse", core::stepFuseName(fuse)},
                       {"policy", core::levelPolicyName(policy)}},
                      std::move(numbers));
        }
      }
    }
  }
  table.print(std::cout);

  std::cout << "\npaper shape check: one lazy whole-step graph beats the "
               "eager per-stage\nloop by eliminating per-sweep fork/joins "
               "and overlapping cross-stage work.\n";
  return 0;
}
