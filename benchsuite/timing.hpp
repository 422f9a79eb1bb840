#pragma once
// Time-budgeted measurement loops shared by the workloads.

#include <cstddef>
#include <numeric>
#include <vector>

#include "harness/stats.hpp"
#include "harness/timer.hpp"

namespace fluxdiv::benchsuite {

/// Call `op(last)` until `budgetS` seconds have passed since the loop
/// started, and at least `minOps` times; `op` times its own measured part
/// and returns those seconds. `last` is true on the final call, which the
/// loop predicts from the previous call's time, so an op can save state
/// right before it (the output checks re-run the last step).
template <typename Op>
std::vector<double> timedLoop(double budgetS, std::size_t minOps, Op&& op) {
  std::vector<double> secs;
  const harness::Timer wall;
  for (;;) {
    const double predicted =
        wall.seconds() + (secs.empty() ? 0.0 : secs.back());
    const bool last = secs.size() + 1 >= minOps && predicted >= budgetS;
    secs.push_back(op(last));
    if (last) {
      return secs;
    }
  }
}

inline double median(const std::vector<double>& v) {
  return harness::percentile(v, 50.0);
}

inline double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

} // namespace fluxdiv::benchsuite
