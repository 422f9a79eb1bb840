#pragma once
// Per-layer probes of the traced run. Each probe drives one layer through
// its public functions and wraps every call in a span; perLayerMetrics()
// then turns the spans, plus the counters the layers expose, into the
// per-layer metrics of BENCHMARK.json. Span names are "<layer>.<call>".

#include <vector>

#include "core/runner.hpp"
#include "core/stepgraph.hpp"
#include "grid/leveldata.hpp"
#include "serve/solve_service.hpp"
#include "solvers/integrator.hpp"
#include "tracer.hpp"
#include "tuner/tunedb.hpp"
#include "workloads.hpp"

namespace fluxdiv::benchsuite {

/// Counters gathered next to the spans. Sums run over every probe of the
/// run; perLayerMetrics() divides them by the matching span counts.
struct LayerCounts {
  double exchangeBytes = 0;      ///< over the traced grid.exchange calls
  double rhsCells = 0;           ///< valid cells over the core.rhs calls
  double eagerSteps = 0;         ///< composed eager steps
  double workspacePeakBytes = 0; ///< largest FluxDivRunner workspace
  double modelBytesPerCell = 0;  ///< memmodel estimate (computed)

  double captures = 0; ///< step programs captured (one time step each)
  double phases = 0;
  double tasks = 0;
  double edges = 0;
  double exchangeOps = 0;
  int exchangeDepth = 0;

  int threads = 1;        ///< workers of the pool the counters below watch
  double poolSteps = 0;   ///< steps (or one-step solves) the pool ran
  double poolWallS = 0;
  double poolBusyS = 0;
  double tasksExecuted = 0;
  double tasksStolen = 0;
  double idleSleeps = 0;
  double domainCrossings = 0;

  double batches = 0;
  double solves = 0;
  double cacheHits = 0;
  double retunes = 0;
  int maxDomains = 0;
  std::vector<double> latenciesS;
  double tunerHits = 0;
  double tunerMisses = 0;

  double scalingEff = 0;  ///< one-thread time / (T x T-thread time)
  double overheadPct = 0; ///< traced vs untraced time of one operation

  /// Fold one service batch into the pool, service and latency counters.
  void addServiceReport(const serve::ServiceReport& rep, int poolThreads);
};

/// Storage for the stage slots (1..nSlots-1) of `prog` on `layout`.
std::vector<grid::LevelData> stageLevels(const core::StepProgram& prog,
                                         const grid::DisjointBoxLayout& layout);

/// One time step of `prog` on `u` composed from public calls in program
/// order — the eager path: per RHS an exchange, zeroing of the RHS level
/// and one FluxDivRunner::run; per combine one copyValid / addScaled /
/// scaleValid. `stages` comes from stageLevels().
void eagerStep(Tracer& tracer, core::FluxDivRunner& runner,
               const core::StepProgram& prog, grid::LevelData& u,
               std::vector<grid::LevelData>& stages, grid::Real invDx,
               LayerCounts& counts, int request);

/// One time step through the executor's phase API on a caller-owned pool:
/// preparePhases, then per phase beginPhase / submit / wait / endPhase.
void phaseStep(Tracer& tracer, core::StepGraphExecutor& exec,
               core::TaskPool& pool, const core::StepProgram& prog,
               grid::LevelData& u, const core::StepRhsSpec& rhs,
               int request);

/// Capture `prog` on `u` (span stepgraph.capture), then rebind onto the
/// same-shaped `other` and back (two stepgraph.rebind spans). Adds the
/// capture's task-graph counts.
void captureProbe(Tracer& tracer, core::StepGraphExecutor& exec,
                  const core::StepProgram& prog, grid::LevelData& u,
                  grid::LevelData& other, const core::StepRhsSpec& rhs,
                  LayerCounts& counts);

/// Admission-tuner lookups on fresh databases: a cold key (cost-model
/// prior) and, after one observation, the same key warm.
void tunerProbe(Tracer& tracer, const tuner::MachineSignature& machine,
                const tuner::TuneKey& key, int nBoxes, int reps);

/// The rebind gate every cached admission pays: buildStepProgram plus
/// analysis::stepSignature of `u`'s shape.
void gateProbe(Tracer& tracer, solvers::Scheme scheme, grid::Real dt,
               const grid::LevelData& u, core::StepFuse fuse, int reps);

/// Every per-layer metric of BENCHMARK.json, from the spans and counters.
std::vector<Metric> perLayerMetrics(const Tracer& tracer,
                                    const LayerCounts& counts);

} // namespace fluxdiv::benchsuite
