#pragma once
// Runtime machine description. The paper ran on three named HPC nodes and
// reported core counts and cache sizes; each bench binary prints this report
// so a run is self-describing about the node it executed on.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace fluxdiv::harness {

/// One level of the CPU cache hierarchy as reported by sysfs.
struct CacheLevel {
  int level = 0;              ///< 1, 2, 3, ...
  std::string type;           ///< "Data", "Instruction", "Unified"
  std::size_t sizeBytes = 0;
  std::size_t lineBytes = 0;
  int associativity = 0;      ///< 0 if unknown
};

/// One NUMA node as reported by sysfs: its id and how many hardware
/// threads its cpulist covers. First-touch page placement makes the node
/// count the relevant knob for the step graphs' box -> worker affinity.
struct NumaNode {
  int id = 0;
  int cpuCount = 0;
};

/// Description of the host the benchmark runs on.
struct MachineInfo {
  std::string cpuModel;
  int logicalCores = 1;
  std::vector<CacheLevel> caches; ///< data/unified levels of cpu0
  bool cacheFallback = false;     ///< true when `caches` are the documented
                                  ///< defaults, not detected values
  std::vector<NumaNode> numaNodes; ///< online nodes; never empty after
                                   ///< queryMachine() (see applyNumaFallback)
  bool numaFallback = false;       ///< true when `numaNodes` is the
                                   ///< single-node default, not detected
};

/// Probe /proc/cpuinfo, sysfs and sysconf. Never throws; missing fields
/// stay default, and a failed cache probe installs the documented default
/// hierarchy (see defaultCacheHierarchy) rather than zero-sized caches.
MachineInfo queryMachine();

/// The documented default cache hierarchy used when detection fails: a
/// paper-era desktop part (32 KiB L1d / 256 KiB L2 / 8 MiB L3, 64 B
/// lines). Zero-sized caches must never escape queryMachine() — a zero
/// capacity would make every schedule "fit in cache" and silently corrupt
/// the cost model's rankings.
std::vector<CacheLevel> defaultCacheHierarchy();

/// Drop unusable (zero-sized) cache entries from `info` and, if no usable
/// data/unified level remains, install defaultCacheHierarchy() and set
/// `info.cacheFallback`. Returns true when the fallback was installed.
/// Exposed so tests can force the detection-failure path directly.
bool applyCacheFallback(MachineInfo& info);

/// Number of hardware threads covered by a sysfs cpulist string such as
/// "0-3,8-11,15" (0 for empty/unparseable input). Exposed for tests.
int parseCpuListCount(const std::string& text);

/// Ensure `info.numaNodes` is usable: drop zero-CPU entries and, if none
/// remain (the sysfs node directory is commonly hidden in containers),
/// install the documented single-node fallback covering all logical cores
/// and set `info.numaFallback` — the same contract as applyCacheFallback.
/// Returns true when the fallback was installed.
bool applyNumaFallback(MachineInfo& info);

/// Size in bytes of the last-level data/unified cache (0 if unknown). Used
/// by the analytic traffic model as the capacity threshold.
std::size_t lastLevelCacheBytes(const MachineInfo& info);

/// Print a one-paragraph report mirroring the paper's Sec. VI-A setup text.
void printMachineReport(std::ostream& os, const MachineInfo& info);

/// Default thread sweep for scaling figures: powers of two up to the core
/// count, always including 1 and the core count itself (e.g. 1,2,4,8,16,24).
std::vector<std::int64_t> defaultThreadSweep(int maxThreads);

} // namespace fluxdiv::harness
