#include "harness/machine.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

#include "harness/table.hpp"

namespace fluxdiv::harness {

namespace {

std::string readFileTrimmed(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return {};
  }
  std::string line;
  std::getline(in, line);
  while (!line.empty() && (line.back() == '\n' || line.back() == ' ')) {
    line.pop_back();
  }
  return line;
}

std::size_t parseCacheSize(const std::string& text) {
  // sysfs format: "32K", "2048K", "260M"
  if (text.empty()) {
    return 0;
  }
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size()) {
    if (text[i] == 'K') {
      value *= 1024;
    } else if (text[i] == 'M') {
      value *= 1024 * 1024;
    } else if (text[i] == 'G') {
      value *= 1024ull * 1024 * 1024;
    }
  }
  return value;
}

/// Second-chance probe via sysconf when sysfs is unavailable (containers
/// and stripped-down kernels commonly hide /sys/devices/system/cpu).
void queryCachesSysconf(MachineInfo& info) {
#if defined(_SC_LEVEL1_DCACHE_SIZE) && defined(_SC_LEVEL2_CACHE_SIZE) && \
    defined(_SC_LEVEL3_CACHE_SIZE)
  struct Probe {
    int level;
    const char* type;
    int sizeSel;
    int lineSel;
    int assocSel;
  };
  const Probe probes[] = {
      {1, "Data", _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL1_DCACHE_LINESIZE,
       _SC_LEVEL1_DCACHE_ASSOC},
      {2, "Unified", _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL2_CACHE_LINESIZE,
       _SC_LEVEL2_CACHE_ASSOC},
      {3, "Unified", _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL3_CACHE_LINESIZE,
       _SC_LEVEL3_CACHE_ASSOC},
  };
  for (const Probe& p : probes) {
    const long size = sysconf(p.sizeSel);
    if (size <= 0) {
      continue;
    }
    CacheLevel c;
    c.level = p.level;
    c.type = p.type;
    c.sizeBytes = static_cast<std::size_t>(size);
    const long line = sysconf(p.lineSel);
    c.lineBytes = line > 0 ? static_cast<std::size_t>(line) : 64;
    const long assoc = sysconf(p.assocSel);
    c.associativity = assoc > 0 ? static_cast<int>(assoc) : 0;
    info.caches.push_back(c);
  }
#else
  (void)info;
#endif
}

} // namespace

std::vector<CacheLevel> defaultCacheHierarchy() {
  return {
      {1, "Data", 32 * 1024, 64, 8},
      {2, "Unified", 256 * 1024, 64, 8},
      {3, "Unified", 8 * 1024 * 1024, 64, 16},
  };
}

int parseCpuListCount(const std::string& text) {
  // sysfs cpulist format: comma-separated singletons and inclusive ranges,
  // e.g. "0-3,8-11,15".
  int count = 0;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) {
      continue;
    }
    const auto dash = token.find('-');
    try {
      if (dash == std::string::npos) {
        (void)std::stoi(token); // validate
        ++count;
      } else {
        const int lo = std::stoi(token.substr(0, dash));
        const int hi = std::stoi(token.substr(dash + 1));
        if (hi >= lo) {
          count += hi - lo + 1;
        }
      }
    } catch (const std::exception&) {
      // Unparseable token: skip it rather than guessing.
    }
  }
  return count;
}

bool applyNumaFallback(MachineInfo& info) {
  std::erase_if(info.numaNodes,
                [](const NumaNode& n) { return n.cpuCount <= 0; });
  if (!info.numaNodes.empty()) {
    return false;
  }
  // Single node spanning every logical core: correct for all paper-era
  // desktop parts and the common container case where sysfs hides the
  // node directory. The executor's placement logic degrades gracefully —
  // one node means first-touch location never matters.
  info.numaNodes.push_back({0, info.logicalCores});
  info.numaFallback = true;
  return true;
}

bool applyCacheFallback(MachineInfo& info) {
  std::erase_if(info.caches,
                [](const CacheLevel& c) { return c.sizeBytes == 0; });
  if (!info.caches.empty()) {
    return false;
  }
  info.caches = defaultCacheHierarchy();
  info.cacheFallback = true;
  return true;
}

MachineInfo queryMachine() {
  MachineInfo info;
  info.logicalCores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        info.cpuModel = line.substr(colon + 2);
      }
      break;
    }
  }

  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::string type = readFileTrimmed(base + "/type");
    if (type.empty()) {
      break;
    }
    if (type == "Instruction") {
      continue;
    }
    CacheLevel c;
    c.type = type;
    const std::string level = readFileTrimmed(base + "/level");
    c.level = level.empty() ? 0 : std::stoi(level);
    c.sizeBytes = parseCacheSize(readFileTrimmed(base + "/size"));
    const std::string lineSize =
        readFileTrimmed(base + "/coherency_line_size");
    c.lineBytes = lineSize.empty() ? 64 : std::stoul(lineSize);
    const std::string ways = readFileTrimmed(base + "/ways_of_associativity");
    c.associativity = ways.empty() ? 0 : std::stoi(ways);
    info.caches.push_back(c);
  }
  std::erase_if(info.caches,
                [](const CacheLevel& c) { return c.sizeBytes == 0; });
  if (info.caches.empty()) {
    queryCachesSysconf(info);
  }
  applyCacheFallback(info);

  // NUMA topology: one entry per online sysfs node directory. Nodes are
  // numbered densely from 0 on every kernel we care about, but tolerate
  // holes (possible[] can be sparse after hotplug) by scanning a fixed
  // range rather than stopping at the first miss.
  for (int n = 0; n < 64; ++n) {
    const std::string cpulist = readFileTrimmed(
        "/sys/devices/system/node/node" + std::to_string(n) + "/cpulist");
    if (cpulist.empty()) {
      continue;
    }
    const int cpus = parseCpuListCount(cpulist);
    if (cpus > 0) {
      info.numaNodes.push_back({n, cpus});
    }
  }
  applyNumaFallback(info);
  return info;
}

std::size_t lastLevelCacheBytes(const MachineInfo& info) {
  std::size_t best = 0;
  int bestLevel = 0;
  for (const auto& c : info.caches) {
    if (c.level > bestLevel) {
      bestLevel = c.level;
      best = c.sizeBytes;
    }
  }
  return best;
}

void printMachineReport(std::ostream& os, const MachineInfo& info) {
  os << "machine: " << (info.cpuModel.empty() ? "unknown CPU" : info.cpuModel)
     << ", " << info.logicalCores << " logical cores\n";
  os << "  NUMA: " << info.numaNodes.size()
     << (info.numaNodes.size() == 1 ? " node (" : " nodes (");
  for (std::size_t i = 0; i < info.numaNodes.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << "node" << info.numaNodes[i].id << ": "
       << info.numaNodes[i].cpuCount << " CPUs";
  }
  os << ')';
  if (info.numaFallback) {
    os << " (default; detection failed)";
  }
  os << '\n';
  for (const auto& c : info.caches) {
    os << "  L" << c.level << ' ' << c.type << ": "
       << formatBytes(c.sizeBytes) << ", line " << c.lineBytes << " B";
    if (c.associativity > 0) {
      os << ", " << c.associativity << "-way";
    }
    if (info.cacheFallback) {
      os << " (default; detection failed)";
    }
    os << '\n';
  }
}

std::vector<std::int64_t> defaultThreadSweep(int maxThreads) {
  std::vector<std::int64_t> sweep;
  for (int t = 1; t < maxThreads; t *= 2) {
    sweep.push_back(t);
  }
  sweep.push_back(maxThreads);
  return sweep;
}

} // namespace fluxdiv::harness
