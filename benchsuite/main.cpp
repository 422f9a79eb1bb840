// fluxdiv_bench: runs one benchmark workload, checks its outputs, and
// prints every metric by name and unit. The last line of standard output is
// the machine-readable result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   fluxdiv_bench --workload box128|box16|serve-warm --seed S
//                 [--seconds 10] [--threads T] [--json run.json]
//                 [--trace trace.json]
//   fluxdiv_bench --smoke
//
// Without --trace the metrics are the end-to-end ones; with it the run is
// the per-layer one, and trace.json receives its spans as Chrome
// trace-event JSON. --json writes the result with its run context (host,
// compiler, flags, build type, commit, date, seed, threads).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/args.hpp"
#include "harness/machine.hpp"
#include "workloads.hpp"

extern char** environ;

namespace fluxdiv::benchsuite {

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// A measured value with all its digits.
std::string number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quote(metrics[i].name) +
           ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string utcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string contextJson(const Options& opt,
                        const harness::MachineInfo& machine) {
  std::ostringstream os;
  os << "{\"cpu\": " << quote(machine.cpuModel)
     << ", \"nproc\": " << machine.logicalCores << ", \"caches\": [";
  for (std::size_t i = 0; i < machine.caches.size(); ++i) {
    const harness::CacheLevel& c = machine.caches[i];
    os << (i == 0 ? "" : ", ") << "{\"level\": " << c.level
       << ", \"type\": " << quote(c.type) << ", \"bytes\": " << c.sizeBytes
       << "}";
  }
  os << "], \"compiler\": " << quote(FLUXDIV_BENCH_COMPILER)
     << ", \"flags\": " << quote(FLUXDIV_BENCH_FLAGS)
     << ", \"build_type\": " << quote(FLUXDIV_BENCH_BUILD_TYPE)
     << ", \"git_sha\": " << quote(FLUXDIV_BENCH_GIT_SHA)
     << ", \"date\": " << quote(utcNow()) << ", \"seed\": " << opt.seed
     << ", \"threads\": " << opt.threads
     << ", \"seconds\": " << number(opt.seconds) << "}";
  return os.str();
}

/// Why this run would not measure the program as built and configured by
/// default, or an empty string.
std::string measurementGuard(const Options& opt, int nproc) {
  if (std::string(FLUXDIV_BENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is ") + FLUXDIV_BENCH_BUILD_TYPE +
           ", not Release";
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::string(*e).rfind("FLUXDIV_", 0) == 0) {
      return std::string("environment sets ") + *e +
             ", which changes the program being measured";
    }
  }
  if (opt.threads < 1 || opt.threads > nproc) {
    return "--threads " + std::to_string(opt.threads) +
           " is outside 1.." + std::to_string(nproc);
  }
  return {};
}

Result runWorkload(const Options& opt, Tracer& tracer) {
  Result res;
  try {
    res = opt.workload.rfind("box", 0) == 0 ? runBox(opt, tracer)
                                             : runServe(opt, tracer);
  } catch (const std::exception& e) {
    res.attempted = std::max<std::uint64_t>(res.attempted, 1);
    res.check(std::string("run aborted: ") + e.what());
  }
  if (!opt.traced) {
    res.add("peak_rss_mb", peakRssMiB(), "MiB");
  }
  for (const Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      res.check("metric " + m.name + " is not finite");
    }
  }
  return res;
}

void printMetrics(std::ostream& os, const Result& res) {
  for (const Metric& m : res.metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-36s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    os << line;
  }
  for (const std::string& f : res.failures) {
    std::cerr << "FAILED: " << f << '\n';
  }
}

void printLayers(std::ostream& os, const Tracer& tracer) {
  os << "  span summary (count, total ms, self ms):\n";
  for (const auto& [name, l] : tracer.layers()) {
    char line[160];
    std::snprintf(line, sizeof line, "    %-28s %8zu %12.3f %12.3f\n",
                  name.c_str(), l.count, l.totalMs, l.selfMs);
    os << line;
  }
}

void writeRunJson(const std::string& path, const Options& opt,
                  const std::string& context, const Result& res,
                  const Tracer& tracer) {
  std::ofstream os(path);
  os << "{\"context\": " << context << ",\n \"workload\": "
     << quote(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"traced\": " << (opt.traced ? "true" : "false")
     << ",\n \"correct\": " << (res.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << res.attempted << ", \"failed\": "
     << res.failed << ",\n \"failures\": [";
  for (std::size_t i = 0; i < res.failures.size(); ++i) {
    os << (i == 0 ? "" : ", ") << quote(res.failures[i]);
  }
  os << "],\n \"metrics\": " << metricsJson(res.metrics)
     << ",\n \"samples\": " << metricsJson(res.samples) << ",\n \"layers\": {";
  bool first = true;
  for (const auto& [name, l] : tracer.layers()) {
    os << (first ? "" : ", ") << quote(name) << ": {\"count\": " << l.count
       << ", \"total_ms\": " << number(l.totalMs)
       << ", \"self_ms\": " << number(l.selfMs) << "}";
    first = false;
  }
  os << "}}\n";
  if (!os) {
    throw std::runtime_error("cannot write " + path);
  }
}

/// Every workload at a tiny scale, untraced and traced: the outputs must
/// check, and every workload must report the same metric names per mode.
int smoke(int threads) {
  std::vector<std::string> names[2];
  int bad = 0;
  for (const bool traced : {false, true}) {
    for (const std::string& w : kWorkloads) {
      Options opt;
      opt.workload = w;
      opt.seconds = 0.3;
      opt.threads = threads;
      opt.traced = traced;
      opt.smoke = true;
      Tracer tracer(traced);
      const Result res = runWorkload(opt, tracer);
      std::vector<std::string> got;
      for (const Metric& m : res.metrics) {
        got.push_back(m.name);
      }
      std::sort(got.begin(), got.end());
      std::vector<std::string>& want = names[traced ? 1 : 0];
      if (want.empty()) {
        want = got;
      }
      const bool ok = res.failed == 0 && res.attempted > 0 && got == want;
      std::cout << "smoke " << w << (traced ? " traced" : "") << ": "
                << res.attempted << " checked, " << res.failed
                << " failed, " << got.size() << " metrics"
                << (got == want ? "" : " (metric names differ)")
                << (ok ? "" : "  FAILED") << '\n';
      printMetrics(std::cout, res);
      bad += ok ? 0 : 1;
    }
  }
  return bad == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  harness::Args args;
  args.addString("workload", "", "box128, box16 or serve-warm");
  args.addInt("seed", 1, "seed of the service workload's solve order");
  args.addDouble("seconds", 10.0, "measuring time of the run");
  args.addInt("threads", 0, "pool / OpenMP threads (0 = min(4, nproc))");
  args.addString("json", "", "write the result with its run context here");
  args.addString("trace", "",
                 "per-layer run; write its Chrome trace here");
  args.addBool("smoke", "tiny scale of every workload, as a self-test");
  try {
    if (!args.parse(argc, argv)) {
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }

  const harness::MachineInfo machine = harness::queryMachine();
  const int nproc = std::max(1, machine.logicalCores);
  Options opt;
  opt.threads = static_cast<int>(args.getInt("threads"));
  if (opt.threads == 0) {
    opt.threads = std::min(4, nproc);
  }
  if (args.getBool("smoke")) {
    return smoke(opt.threads);
  }
  opt.workload = args.getString("workload");
  opt.seed = static_cast<std::uint64_t>(args.getInt("seed"));
  opt.seconds = args.getDouble("seconds");
  opt.traced = !args.getString("trace").empty();
  if (std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) ==
          kWorkloads.end() ||
      args.getInt("seed") < 0 || !(opt.seconds > 0)) {
    std::cerr << "error: need --workload box128|box16|serve-warm,"
                 " --seed >= 0 and --seconds > 0\n";
    return 2;
  }
  const std::string guard = measurementGuard(opt, nproc);
  if (!guard.empty()) {
    std::cerr << "error: " << guard << '\n';
    return 2;
  }

  const std::string context = contextJson(opt, machine);
  Tracer tracer(opt.traced);
  const Result res = runWorkload(opt, tracer);
  std::cout << opt.workload << " (seed " << opt.seed << ", " << opt.threads
            << " threads, " << (opt.traced ? "per-layer" : "end-to-end")
            << "): " << res.attempted << " operations checked, "
            << res.failed << " failed\n";
  printMetrics(std::cout, res);
  if (opt.traced) {
    printLayers(std::cout, tracer);
    tracer.writeChrome(args.getString("trace"));
  }
  if (!args.getString("json").empty()) {
    writeRunJson(args.getString("json"), opt, context, res, tracer);
  }
  std::cout << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed
            << ", \"metrics\": " << metricsJson(res.metrics) << "}"
            << std::endl;
  return res.failed == 0 ? 0 : 1;
}

} // namespace

} // namespace fluxdiv::benchsuite

int main(int argc, char** argv) {
  try {
    return fluxdiv::benchsuite::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
