// Throughput service mode (docs/serving.md): M independent solver
// instances — two schemes x two box sizes by default — admitted into ONE
// shared work-stealing pool (auto admission window, threads + 1), versus
// the same workload run back-to-back through the service (admission
// window 1) and versus plain solo TimeIntegrator runs. Reports
// solves/sec, p50/p99 per-solve latency, pool utilization, and
// steal/domain-crossing counts per thread count. The committed
// BENCH_throughput.json is this bench's --json output.

#include <algorithm>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/timer.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "serve/solve_service.hpp"
#include "solvers/integrator.hpp"
#include "solvers/rhs.hpp"

namespace fluxdiv {
namespace {

std::vector<solvers::Scheme> parseSchemeList(const std::string& text) {
  std::vector<solvers::Scheme> out;
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

/// The bench workload: `copies` solves of every scheme x box size combo.
std::vector<serve::InstanceSpec> buildWorkload(
    const std::vector<solvers::Scheme>& schemes,
    const std::vector<std::int64_t>& boxSizes, int nBoxes, int steps,
    int copies, core::LevelPolicy policy) {
  std::vector<serve::InstanceSpec> specs;
  int id = 0;
  for (int c = 0; c < copies; ++c) {
    for (const solvers::Scheme scheme : schemes) {
      for (const std::int64_t n : boxSizes) {
        serve::InstanceSpec spec;
        spec.name = std::string(solvers::schemeName(scheme)) + "-n" +
                    std::to_string(n) + "-" + std::to_string(id++);
        spec.scheme = scheme;
        spec.boxSize = static_cast<int>(n);
        spec.nBoxes = nBoxes;
        spec.steps = steps;
        spec.autoPolicy = false;
        spec.policy = policy;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

/// Solo reference: every spec solved back-to-back by a private
/// TimeIntegrator (own executor, own pool) — the pre-service baseline.
/// Returns per-solve latencies.
std::vector<double> soloLatencies(
    const std::vector<serve::InstanceSpec>& specs,
    const core::VariantConfig& cfg, int threads) {
  std::vector<double> lat;
  lat.reserve(specs.size());
  for (const serve::InstanceSpec& spec : specs) {
    const grid::DisjointBoxLayout dbl = serve::specLayout(spec);
    grid::LevelData u(dbl, kernels::kNumComp, kernels::kNumGhost);
    kernels::initializeExemplar(u);
    solvers::FluxDivRhs rhs(cfg, threads);
    solvers::TimeIntegrator integ(spec.scheme, dbl);
    integ.setLevelPolicy(spec.policy);
    harness::Timer t;
    integ.advanceSteps(u, spec.dt, rhs, spec.steps);
    lat.push_back(t.seconds());
  }
  return lat;
}

struct ModeResult {
  double wall = 0;
  harness::LatencySummary latency;
  double utilization = 0;
  std::uint64_t stolen = 0;
  std::uint64_t crossings = 0;
};

/// Fold one service run into the best-of accumulator. Modes are
/// measured interleaved (solo, serial, shared within each rep) so a
/// machine-wide slowdown mid-bench cannot land entirely on one mode.
void keepBest(ModeResult& best, bool first,
              const serve::ServiceReport& rep) {
  if (first || rep.wallSeconds < best.wall) {
    best.wall = rep.wallSeconds;
    best.latency = rep.latency;
    best.utilization = rep.poolUtilization;
    best.stolen = rep.tasksStolen;
    best.crossings = rep.domainCrossings;
  }
}

} // namespace
} // namespace fluxdiv

int main(int argc, char** argv) {
  using namespace fluxdiv;
  harness::Args args;
  bench::addCommonOptions(args);
  args.addString("scheme", "rk4,ssprk3", "comma-separated schemes");
  args.addIntList("boxsize", {16, 24}, "box sides in the workload mix");
  args.addInt("nboxes", 4, "boxes per instance level");
  args.addInt("steps", 4, "time steps per solve");
  args.addInt("copies", 3, "solves per scheme x box-size combo");
  args.addString("policy", "parallel", "level policy for every instance");
  if (!args.parse(argc, argv)) {
    return 1;
  }

  const std::vector<solvers::Scheme> schemes =
      parseSchemeList(args.getString("scheme"));
  core::LevelPolicy policy{};
  if (!core::parseLevelPolicy(args.getString("policy"), policy)) {
    std::cerr << "bad --policy\n";
    return 1;
  }
  const int reps = static_cast<int>(args.getInt("reps"));
  const int nBoxes = static_cast<int>(args.getInt("nboxes"));
  const int steps = static_cast<int>(args.getInt("steps"));
  const int copies = static_cast<int>(args.getInt("copies"));

  bench::printHeader(
      "Throughput service: concurrent solves over one shared pool", args);

  const std::vector<serve::InstanceSpec> specs =
      buildWorkload(schemes, args.getIntList("boxsize"), nBoxes, steps,
                    copies, policy);
  const core::VariantConfig cfg =
      core::makeShiftFuse(core::ParallelGranularity::WithinBox);

  harness::Table table({"threads", "mode", "solves/s", "p50 ms", "p99 ms",
                        "util", "vs serial"});
  bench::JsonWriter json(args.getString("json"));

  for (const int t : bench::threadSweep(args)) {
    serve::ServiceOptions serialOpts;
    serialOpts.threads = t;
    serialOpts.maxConcurrent = 1; // back-to-back through the service
    serve::SolveService serialSvc(serialOpts);
    serve::ServiceOptions sharedOpts;
    sharedOpts.threads = t;
    sharedOpts.maxConcurrent = 0; // auto admission window
    serve::SolveService sharedSvc(sharedOpts);

    // Interleave the three modes inside each rep (best-of across reps):
    // later reps hit the services' executor caches — the steady state a
    // long-running service sees — and no mode eats a machine-wide
    // slowdown alone.
    std::vector<double> solo;
    ModeResult serial;
    ModeResult shared;
    for (int r = 0; r < reps; ++r) {
      std::vector<double> lat = soloLatencies(specs, cfg, t);
      if (r == 0 ||
          std::accumulate(lat.begin(), lat.end(), 0.0) <
              std::accumulate(solo.begin(), solo.end(), 0.0)) {
        solo = std::move(lat);
      }
      keepBest(serial, r == 0, serialSvc.run(specs));
      keepBest(shared, r == 0, sharedSvc.run(specs));
    }
    const double soloWall =
        std::accumulate(solo.begin(), solo.end(), 0.0);

    const auto addRow = [&](const char* mode, double wall,
                            const harness::LatencySummary& lat,
                            double util, std::uint64_t stolen,
                            std::uint64_t crossings) {
      const double sps = static_cast<double>(specs.size()) / wall;
      table.addRow({std::to_string(t), mode,
                    harness::formatDouble(sps, 1),
                    harness::formatDouble(lat.p50 * 1e3, 2),
                    harness::formatDouble(lat.p99 * 1e3, 2),
                    harness::formatDouble(util * 100.0, 0) + "%",
                    harness::formatDouble(serial.wall / wall, 2) + "x"});
      json.record({{"mode", mode}},
                  {{"threads", static_cast<double>(t)},
                   {"solves", static_cast<double>(specs.size())},
                   {"wall_s", wall},
                   {"solves_per_s", sps},
                   {"p50_ms", lat.p50 * 1e3},
                   {"p99_ms", lat.p99 * 1e3},
                   {"utilization", util},
                   {"stolen", static_cast<double>(stolen)},
                   {"domain_crossings", static_cast<double>(crossings)},
                   {"speedup_vs_serial", serial.wall / wall}});
      std::cerr << "  t=" << t << " " << mode << ": "
                << harness::formatDouble(sps, 1) << " solves/s, p99 "
                << harness::formatDouble(lat.p99 * 1e3, 2) << " ms\n";
    };

    addRow("solo", soloWall, harness::latencySummary(solo), 0.0, 0, 0);
    addRow("serial", serial.wall, serial.latency, serial.utilization,
           serial.stolen, serial.crossings);
    addRow("shared", shared.wall, shared.latency, shared.utilization,
           shared.stolen, shared.crossings);
  }
  table.print(std::cout);
  return 0;
}
