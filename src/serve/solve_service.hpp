#pragma once
// Throughput service mode (docs/serving.md): admit M independent solver
// instances — different box counts, box sizes, schemes, level policies — into
// ONE shared work-stealing TaskPool. Each instance's RK step is lowered
// through its own StepGraphExecutor into the pool under a per-instance
// task domain, so captured graphs from different instances interleave in
// the same worker deques with weighted-fair scheduling between them. A
// single orchestrator thread submits each instance's one step graph,
// harvests completions with waitAny(), and records per-solve latency;
// admission consults a persistent tuner::TuneDB so repeat traffic is
// admitted with measured level-policy choices and never re-tunes, while
// cold traffic is admitted on cost-model priors and measured once.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/taskpool.hpp"
#include "core/variant.hpp"
#include "grid/leveldata.hpp"
#include "harness/stats.hpp"
#include "solvers/integrator.hpp"
#include "tuner/tunedb.hpp"

namespace fluxdiv::serve {

/// One solve request: a level shape, a scheme, a step count, and either
/// pinned or tuner-chosen schedule knobs. This is one line of a workload
/// spec file (docs/serving.md, "Workload spec").
struct InstanceSpec {
  std::string name;
  solvers::Scheme scheme = solvers::Scheme::RK4;
  int boxSize = 16;   ///< cubic box side
  int nBoxes = 4;     ///< boxes along x (periodic row level)
  int steps = 2;      ///< time steps per solve
  grid::Real dt = 1e-4;
  int weight = 1;     ///< fair-share weight of the instance's task domain
  bool autoPolicy = true; ///< consult the TuneDB / prior for the policy
  core::LevelPolicy policy = core::LevelPolicy::BoxParallel; ///< when
                                                             ///< !autoPolicy
};

/// Parse one workload line: `name key=value...` with keys scheme, box,
/// nboxes, steps, dt, weight, fuse, policy (policy accepts "auto"). Every
/// solve runs the fused step graph, so `fuse=` accepts only `fused` and
/// `auto`, kept so existing workload files still parse. A line whose
/// box x nboxes x extent, ghosts included, does not fit in int is
/// rejected at its last box= or nboxes= token. Throws
/// std::invalid_argument with the offending token.
InstanceSpec parseInstanceSpec(const std::string& line);

/// Parse a workload stream/file: one instance per line, '#' comments and
/// blank lines ignored. loadWorkload throws std::runtime_error when the
/// file cannot be read.
std::vector<InstanceSpec> parseWorkload(std::istream& in);
std::vector<InstanceSpec> loadWorkload(const std::string& path);

struct ServiceOptions {
  int threads = 4;
  bool pin = false;         ///< TaskPool worker pinning
  /// Admission window: maximum in-flight instances. 0 = auto
  /// (threads + 1: one instance per worker plus one extra so the next
  /// admission's tune/rebind overlaps execution); negative = unlimited.
  /// Unlimited admission keeps every instance's working set live at
  /// once and thrashes the shared cache — auto is the throughput
  /// default, explicit windows are for latency tuning.
  int maxConcurrent = 0;
  tuner::TuneDB* tunedb = nullptr; ///< admission tuner; may be null
                                   ///< (specs' own knobs / defaults)
  /// Within-box schedule every instance runs (the service tunes the
  /// step-level knobs; the within-box variant is the advisor's job).
  core::VariantConfig cfg =
      core::makeShiftFuse(core::ParallelGranularity::WithinBox);
};

/// Per-instance outcome.
struct InstanceReport {
  std::string name;
  solvers::Scheme scheme = solvers::Scheme::RK4;
  core::LevelPolicy policy = core::LevelPolicy::BoxParallel;
  bool tunedFromPrior = false; ///< admission fell back to the cost model
                               ///< (a re-tune: the solve was measured and
                               ///< folded back into the TuneDB)
  double latencySeconds = 0;   ///< admission -> completion
  double stepSeconds = 0;      ///< latencySeconds / steps
  std::uint64_t cacheHits = 0; ///< executor graph-cache hits
  std::uint64_t rebinds = 0;   ///< layout-keyed rebinds among the hits
  core::DomainStats domain;    ///< executed/stolen tasks of the domain
};

/// Whole-run outcome: the throughput numbers bench_throughput and
/// fluxdiv_serve report.
struct ServiceReport {
  std::size_t solves = 0; ///< instances completed (stable under a
                          ///< caller clearing `instances` for brevity)
  double wallSeconds = 0;
  double solvesPerSec = 0;
  harness::LatencySummary latency; ///< per-solve latency percentiles
  double poolUtilization = 0;      ///< busy worker-seconds /
                                   ///< (threads x wall)
  std::uint64_t tasksExecuted = 0;
  std::uint64_t tasksStolen = 0;
  std::uint64_t domainCrossings = 0;
  std::uint64_t idleSleeps = 0;
  std::uint64_t submissions = 0;
  std::uint64_t graphCacheHits = 0; ///< summed over instances
  std::uint64_t retunes = 0;        ///< instances admitted off a prior
  std::vector<InstanceReport> instances;
};

/// The service. One instance owns the shared TaskPool; run() may be
/// called repeatedly (a later run reuses the pool and, through the
/// TuneDB, the earlier runs' measurements). Not thread-safe: one
/// orchestrator thread drives it.
class SolveService {
public:
  explicit SolveService(ServiceOptions opts);
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Solve every spec concurrently, advancing `states[i]` (whose layout
  /// must match specs[i]) in place — the caller keeps the solutions, so
  /// tests can compare them bit-for-bit against solo runs. Throws
  /// std::invalid_argument on a size mismatch.
  ServiceReport run(const std::vector<InstanceSpec>& specs,
                    const std::vector<grid::LevelData*>& states);

  /// Convenience: build an exemplar-initialized periodic row level per
  /// spec, solve, and discard the solutions.
  ServiceReport run(const std::vector<InstanceSpec>& specs);

  [[nodiscard]] core::TaskPool& pool() { return pool_; }
  [[nodiscard]] const ServiceOptions& options() const { return opts_; }

private:
  /// Cached (executor, domain, program) for one solve shape — scheme, box
  /// size, box count, steps, dt, policy, weight. Repeat traffic of
  /// the same shape reuses the entry, so its layout-signature-keyed graph
  /// cache REBINDS onto the new solution allocation instead of
  /// re-lowering (InstanceReport::cacheHits counts these); the entry's
  /// task domain is created once and lives for the pool's lifetime.
  struct ExecEntry;

  ExecEntry& acquireExecutor(const InstanceSpec& spec,
                             core::LevelPolicy policy);

  ServiceOptions opts_;
  core::TaskPool pool_;
  std::vector<std::unique_ptr<ExecEntry>> executors_;
};

/// The periodic row layout a workload spec describes: `nBoxes` boxes of
/// side `boxSize` along x.
grid::DisjointBoxLayout specLayout(const InstanceSpec& spec);

/// Print a human-readable service report table.
void printServiceReport(std::ostream& os, const ServiceReport& report);

} // namespace fluxdiv::serve
