// fluxdiv_serve: replay a workload spec file through the throughput
// service (docs/serving.md). Admits every instance of the workload into
// one shared task pool, optionally consulting/updating a persistent
// TuneDB so that replaying the same workload a second time performs zero
// re-tuning, and prints the service report (solves/sec, p50/p99 latency,
// pool utilization, steal/domain-crossing counts).
//
//   fluxdiv_serve --workload w.spec --tunedb tune.json --threads 8
//                 --repeat 2
//
// Workload spec: one instance per line, `name key=value...` with keys
// scheme, box, nboxes, steps, dt, weight, fuse, policy ('#' comments).

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "harness/args.hpp"
#include "harness/machine.hpp"
#include "serve/solve_service.hpp"
#include "tuner/tunedb.hpp"

int main(int argc, char** argv) {
  using namespace fluxdiv;
  harness::Args args;
  args.addString("workload", "",
                 "workload spec file (required; see docs/serving.md)");
  args.addString("tunedb", "",
                 "persistent TuneDB JSON (loaded if present, saved after "
                 "the run)");
  args.addInt("threads", 4, "shared pool workers");
  args.addInt("repeat", 1, "replay the workload this many times");
  args.addInt("window", 0,
              "admission window: max in-flight instances (0 = auto, "
              "threads + 1; negative = all at once)");
  args.addBool("pin", "pin pool workers to cores");
  args.addBool("quiet", "suppress the per-instance report lines");
  if (!args.parse(argc, argv)) {
    return 1;
  }
  if (args.getString("workload").empty()) {
    std::cerr << "fluxdiv_serve: --workload is required\n";
    return 1;
  }

  try {
    const std::vector<serve::InstanceSpec> specs =
        serve::loadWorkload(args.getString("workload"));
    if (specs.empty()) {
      std::cerr << "fluxdiv_serve: workload is empty\n";
      return 1;
    }

    harness::printMachineReport(std::cout, harness::queryMachine());

    tuner::TuneDB db;
    const std::string dbPath = args.getString("tunedb");
    if (!dbPath.empty()) {
      if (db.load(dbPath)) {
        std::cout << "tunedb: " << db.size() << " measured record(s) for "
                  << db.machine().str() << "\n";
      } else if (std::filesystem::exists(dbPath)) {
        // A missing file is a cold cache; an existing one that cannot
        // be loaded is worth a word before the save below replaces it.
        std::cerr << "fluxdiv_serve: tunedb '" << dbPath
                  << "' cannot be loaded; starting cold (the save after "
                     "the run overwrites it)\n";
      }
    }

    serve::ServiceOptions opts;
    opts.threads = static_cast<int>(args.getInt("threads"));
    opts.pin = args.getBool("pin");
    opts.maxConcurrent = static_cast<int>(args.getInt("window"));
    opts.tunedb = dbPath.empty() ? nullptr : &db;
    serve::SolveService service(opts);

    const int repeat =
        std::max(1, static_cast<int>(args.getInt("repeat")));
    for (int r = 0; r < repeat; ++r) {
      serve::ServiceReport report = service.run(specs);
      std::cout << "\nrun " << (r + 1) << "/" << repeat << " ("
                << specs.size() << " instances, "
                << opts.threads << " threads):\n";
      if (args.getBool("quiet")) {
        report.instances.clear();
      }
      serve::printServiceReport(std::cout, report);
    }

    if (!dbPath.empty()) {
      db.save(dbPath);
      std::cout << "\ntunedb: saved " << db.size()
                << " measured record(s) to " << dbPath << " ("
                << db.counters().hits << " hits, "
                << db.counters().misses << " misses, "
                << db.counters().refines << " refines)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "fluxdiv_serve: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
