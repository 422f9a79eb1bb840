#pragma once
// Wall-clock timing utilities shared by the benchmark harness, the examples,
// and the tests. Uses steady_clock so measured intervals are immune to
// system-clock adjustments.

#include <chrono>
#include <cstdint>

namespace fluxdiv::harness {

/// Monotonic wall-clock stopwatch.
class Timer {
public:
  Timer() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Nanoseconds elapsed since construction or the last reset().
  [[nodiscard]] std::int64_t nanoseconds() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Time a callable once and return elapsed seconds.
template <typename F> double timeOnce(F&& f) {
  Timer t;
  f();
  return t.seconds();
}

/// CPU seconds (user + system) this process has used so far, over all its
/// threads (getrusage(RUSAGE_SELF)).
double processCpuSeconds();

/// Share of `threads` CPUs a timed region kept busy: the process CPU
/// seconds it used over (wall seconds x threads). About 1 when every
/// thread had a CPU of its own; about 1 / threads when all shared one.
[[nodiscard]] inline double utilization(double cpuSeconds,
                                        double wallSeconds, int threads) {
  return wallSeconds > 0.0 && threads > 0
             ? cpuSeconds / (wallSeconds * threads)
             : 0.0;
}

} // namespace fluxdiv::harness
