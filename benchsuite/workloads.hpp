#pragma once
// The three benchmark workloads (README.md, "Workloads") and the metric
// record they produce. Every workload runs the library's defaults: the
// within-box variant of serve::ServiceOptions{}, and a TimeIntegrator /
// SolveService with no fuse-mode or level-policy override.

#include <cstdint>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace fluxdiv::benchsuite {

struct Options {
  std::string workload; ///< box128, box16 or serve-warm
  std::uint64_t seed = 1;
  double seconds = 10.0; ///< measuring time of one run
  int threads = 4;
  bool traced = false; ///< per-layer run instead of the end-to-end one
  bool smoke = false;  ///< tiny problem sizes (the --smoke self-test)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run. `attempted` counts the operations whose
/// output the run checked (time steps or solves); `failed` those whose
/// check failed or that threw.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures; ///< one diagnostic per failure
  std::vector<Metric> metrics;
  std::vector<Metric> samples; ///< sample counts behind the metrics

  /// Record the outcome of one check: an empty diagnostic is a pass.
  void check(const std::string& diagnostic) {
    if (!diagnostic.empty()) {
      ++failed;
      failures.push_back(diagnostic);
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Names of the workloads, in the order --smoke runs them.
inline const std::vector<std::string> kWorkloads = {"box128", "box16",
                                                    "serve-warm"};

/// Run one workload. Throws on a failure the run cannot continue past.
Result runBox(const Options& opt, Tracer& tracer);
Result runServe(const Options& opt, Tracer& tracer);

/// Peak resident set size of this process in MiB (getrusage).
double peakRssMiB();

} // namespace fluxdiv::benchsuite
