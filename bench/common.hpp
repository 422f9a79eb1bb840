#pragma once
// Shared driver for the figure/table reproduction binaries: equal-work
// problem construction (the paper holds total cells fixed while varying
// the box size), variant timing, and the standard command-line surface
// (--threads, --nboxes128, --reps, --csv, --paper).

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "grid/leveldata.hpp"
#include "harness/args.hpp"
#include "harness/machine.hpp"
#include "harness/stats.hpp"

namespace fluxdiv::bench {

/// Machine-readable companion to CsvWriter: collects one flat JSON object
/// per record and writes the whole array on destruction (so a crashed run
/// leaves no half-written file behind the comma). An empty path produces
/// a disabled writer whose record() is a no-op. Drives the --json option
/// of the figure benches; docs/perf.md shows the output shape.
class JsonWriter {
public:
  explicit JsonWriter(const std::string& path) : path_(path) {}
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Append one record of string and numeric fields.
  void record(std::vector<std::pair<std::string, std::string>> strings,
              std::vector<std::pair<std::string, double>> numbers);

private:
  std::string path_;
  std::vector<std::string> records_;
};

/// An equal-work problem: a domain of `nWork` 128^3-cell work units
/// decomposed into boxes of side `boxSize`. The paper's full problem is 24
/// work units (50,331,648 cells, Sec. III-C); CI-scale defaults use 1.
struct Problem {
  grid::DisjointBoxLayout layout;
  grid::LevelData phi0;
  grid::LevelData phi1;

  Problem(int boxSize, int nWork);

  /// Reset the output and refresh phi0 ghosts (phi0 is initialized once in
  /// the constructor).
  void resetOutput();
};

/// Minimum wall time (seconds) over `reps` runs of one flux-div evaluation
/// of `problem` under `cfg` on a runner of `threads` workers.
double timeVariant(const core::VariantConfig& cfg, Problem& problem,
                   int threads, int reps);

/// Register the standard options shared by every figure bench.
void addCommonOptions(harness::Args& args);

/// Resolve the thread sweep: --threads if given, else powers of two up to
/// the host's cores.
std::vector<int> threadSweep(const harness::Args& args);

/// Work units from --nboxes128 / --paper (paper scale = 24).
int workUnits(const harness::Args& args);

/// Print the standard run header (machine, problem scale).
void printHeader(const std::string& title, const harness::Args& args);

} // namespace fluxdiv::bench
