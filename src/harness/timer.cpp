#include "harness/timer.hpp"

#include <sys/resource.h>

namespace fluxdiv::harness {

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

} // namespace fluxdiv::harness
