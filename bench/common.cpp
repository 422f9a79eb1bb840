#include "common.hpp"

#include <cstdio>
#include <iostream>

#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"

namespace fluxdiv::bench {

using grid::Box;
using grid::DisjointBoxLayout;
using grid::IntVect;
using grid::ProblemDomain;
using kernels::kNumComp;
using kernels::kNumGhost;

namespace {

DisjointBoxLayout makeLayout(int boxSize, int nWork) {
  // Domain: nWork x 1 x 1 units of 128^3 cells. Box sizes 16..128 divide
  // 128 so every equal-work comparison uses identical global data.
  const Box domainBox(IntVect::zero(),
                      IntVect(128 * nWork - 1, 127, 127));
  return DisjointBoxLayout(ProblemDomain(domainBox), boxSize);
}

} // namespace

Problem::Problem(int boxSize, int nWork)
    : layout(makeLayout(boxSize, nWork)),
      phi0(layout, kNumComp, kNumGhost),
      phi1(layout, kNumComp, kNumGhost) {
  kernels::initializeExemplar(phi0);
}

void Problem::resetOutput() {
  for (std::size_t b = 0; b < phi1.size(); ++b) {
    phi1[b].setVal(0.0);
  }
}

double timeVariant(const core::VariantConfig& cfg, Problem& problem,
                   int threads, int reps) {
  core::FluxDivRunner runner(cfg, threads);
  // One warm-up evaluation (first-touch page faults, workspace growth).
  problem.resetOutput();
  runner.run(problem.phi0, problem.phi1);
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    problem.resetOutput();
    harness::Timer t;
    runner.run(problem.phi0, problem.phi1);
    const double s = t.seconds();
    if (r == 0 || s < best) {
      best = s;
    }
  }
  return best;
}

JsonWriter::~JsonWriter() {
  if (path_.empty()) {
    return;
  }
  std::ofstream out(path_);
  if (!out) {
    std::cerr << "warning: could not open " << path_ << " for writing\n";
    return;
  }
  out << "[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    out << "  " << records_[i] << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

void JsonWriter::record(
    std::vector<std::pair<std::string, std::string>> strings,
    std::vector<std::pair<std::string, double>> numbers) {
  if (path_.empty()) {
    return;
  }
  // Field names and values come from variant names / option values; none
  // contain characters needing JSON escaping beyond quotes.
  std::string rec = "{";
  bool first = true;
  const auto key = [&](const std::string& k) {
    if (!first) {
      rec += ", ";
    }
    first = false;
    rec += '"' + k + "\": ";
  };
  for (const auto& [k, v] : strings) {
    key(k);
    rec += '"' + v + '"';
  }
  for (const auto& [k, v] : numbers) {
    key(k);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    rec += buf;
  }
  rec += "}";
  records_.push_back(std::move(rec));
}

void addCommonOptions(harness::Args& args) {
  args.addIntList("threads", {},
                  "thread counts to sweep (default: 1,2,4,... up to cores)");
  args.addInt("nboxes128", 1,
              "problem size in 128^3-cell work units (paper: 24)");
  args.addInt("reps", 3, "timed repetitions per point (minimum reported)");
  args.addString("csv", "", "also write results to this CSV file");
  args.addString("json", "",
                 "also write results as a JSON array to this file");
  args.addBool("paper", "paper-scale problem (= --nboxes128 24)");
}

std::vector<int> threadSweep(const harness::Args& args) {
  std::vector<int> sweep;
  for (std::int64_t t : args.getIntList("threads")) {
    sweep.push_back(static_cast<int>(t));
  }
  if (sweep.empty()) {
    const auto info = harness::queryMachine();
    for (std::int64_t t : harness::defaultThreadSweep(info.logicalCores)) {
      sweep.push_back(static_cast<int>(t));
    }
  }
  return sweep;
}

int workUnits(const harness::Args& args) {
  if (args.getBool("paper")) {
    return 24;
  }
  return static_cast<int>(args.getInt("nboxes128"));
}

void printHeader(const std::string& title, const harness::Args& args) {
  std::cout << "=== " << title << " ===\n";
  harness::printMachineReport(std::cout, harness::queryMachine());
  const int nWork = workUnits(args);
  std::cout << "problem: " << nWork << " work unit(s) of 128^3 cells = "
            << (static_cast<long long>(nWork) * 128 * 128 * 128)
            << " cells, " << kernels::kNumComp << " components, "
            << kernels::kNumGhost << " ghosts\n"
            << "timing: min of " << args.getInt("reps")
            << " repetitions (after 1 warm-up)\n\n";
}

} // namespace fluxdiv::bench
