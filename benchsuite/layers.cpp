#include "layers.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/stepcheck.hpp"
#include "harness/stats.hpp"
#include "kernels/exemplar.hpp"

namespace fluxdiv::benchsuite {

using grid::LevelData;
using Span = Tracer::Span;

void LayerCounts::addServiceReport(const serve::ServiceReport& rep,
                                   int poolThreads) {
  batches += 1;
  solves += static_cast<double>(rep.solves);
  cacheHits += static_cast<double>(rep.graphCacheHits);
  retunes += static_cast<double>(rep.retunes);
  threads = poolThreads;
  poolSteps += static_cast<double>(rep.solves);
  poolWallS += rep.wallSeconds;
  poolBusyS += rep.poolUtilization * poolThreads * rep.wallSeconds;
  tasksExecuted += static_cast<double>(rep.tasksExecuted);
  tasksStolen += static_cast<double>(rep.tasksStolen);
  idleSleeps += static_cast<double>(rep.idleSleeps);
  domainCrossings += static_cast<double>(rep.domainCrossings);
  for (const serve::InstanceReport& r : rep.instances) {
    latenciesS.push_back(r.latencySeconds);
  }
}

std::vector<LevelData> stageLevels(const core::StepProgram& prog,
                                   const grid::DisjointBoxLayout& layout) {
  std::vector<LevelData> stages;
  for (int s = 1; s < prog.nSlots; ++s) {
    stages.emplace_back(layout, kernels::kNumComp, kernels::kNumGhost);
  }
  return stages;
}

void eagerStep(Tracer& tracer, core::FluxDivRunner& runner,
               const core::StepProgram& prog, LevelData& u,
               std::vector<LevelData>& stages, grid::Real invDx,
               LayerCounts& counts, int request) {
  const auto slot = [&](int s) -> LevelData& {
    return s == 0 ? u : stages[static_cast<std::size_t>(s - 1)];
  };
  const Span step(tracer, "bench.eager_step", request);
  for (const core::StepOp& op : prog.ops) {
    LevelData& dst = slot(op.dst);
    const LevelData& src = slot(op.src);
    switch (op.kind) {
    case core::StepOpKind::Exchange: {
      const Span s(tracer, "grid.exchange");
      dst.exchange();
      counts.exchangeBytes += static_cast<double>(dst.exchangeBytes());
      break;
    }
    case core::StepOpKind::BoundaryFill:
      throw std::logic_error("eagerStep: periodic workloads fill no "
                             "physical boundaries");
    case core::StepOpKind::RhsEval: {
      {
        const Span s(tracer, "solvers.rhs_zero");
        for (std::size_t b = 0; b < dst.size(); ++b) {
          dst[b].setVal(0.0);
        }
      }
      const Span s(tracer, "core.rhs");
      runner.run(src, dst, -invDx);
      counts.rhsCells += static_cast<double>(src.totalCellsValid());
      break;
    }
    case core::StepOpKind::CopySlot: {
      const Span s(tracer, "solvers.combine");
      solvers::copyValid(src, dst);
      break;
    }
    case core::StepOpKind::AxpySlot: {
      const Span s(tracer, "solvers.combine");
      solvers::addScaled(dst, src, op.scale);
      break;
    }
    case core::StepOpKind::ScaleSlot: {
      const Span s(tracer, "solvers.combine");
      solvers::scaleValid(dst, op.scale);
      break;
    }
    }
  }
  counts.eagerSteps += 1;
  counts.workspacePeakBytes =
      std::max(counts.workspacePeakBytes,
               static_cast<double>(runner.totalPeakWorkspaceBytes()));
}

void phaseStep(Tracer& tracer, core::StepGraphExecutor& exec,
               core::TaskPool& pool, const core::StepProgram& prog,
               LevelData& u, const core::StepRhsSpec& rhs, int request) {
  const Span step(tracer, "bench.step", request);
  std::size_t phases = 0;
  {
    const Span s(tracer, "stepgraph.prepare");
    phases = exec.preparePhases(prog, u, rhs);
  }
  for (std::size_t p = 0; p < phases; ++p) {
    const Span s(tracer, "stepgraph.phase");
    core::TaskGraph& graph = exec.beginPhase(p);
    pool.wait(pool.submit(graph, exec.options().domain));
    exec.endPhase(p);
  }
}

void captureProbe(Tracer& tracer, core::StepGraphExecutor& exec,
                  const core::StepProgram& prog, LevelData& u,
                  LevelData& other, const core::StepRhsSpec& rhs,
                  LayerCounts& counts) {
  {
    const Span s(tracer, "stepgraph.capture");
    exec.preparePhases(prog, u, rhs);
  }
  const core::StepGraphStats& st = exec.stats();
  counts.captures += 1;
  counts.phases += static_cast<double>(st.graphCount);
  counts.tasks += static_cast<double>(st.taskCount);
  counts.edges += static_cast<double>(st.edgeCount);
  counts.exchangeOps += static_cast<double>(st.exchangeOps);
  counts.exchangeDepth = std::max(counts.exchangeDepth, st.exchangeDepth);
  for (LevelData* level : {&other, &u}) {
    const Span s(tracer, "stepgraph.rebind");
    exec.preparePhases(prog, *level, rhs);
  }
}

void tunerProbe(Tracer& tracer, const tuner::MachineSignature& machine,
                const tuner::TuneKey& key, int nBoxes, int reps) {
  for (int r = 0; r < reps; ++r) {
    tuner::TuneDB db(machine);
    core::StepFuse fuse{};
    core::LevelPolicy policy{};
    {
      const Span s(tracer, "tuner.suggest_cold");
      const tuner::TuneEntry& e = db.suggest(key, nBoxes);
      fuse = e.fuse;
      policy = e.policy;
    }
    db.observe(key, fuse, policy, 1e-3);
    const Span s(tracer, "tuner.suggest_warm");
    (void)db.suggest(key, nBoxes);
  }
}

void gateProbe(Tracer& tracer, solvers::Scheme scheme, grid::Real dt,
               const LevelData& u, core::StepFuse fuse, int reps) {
  analysis::StepShapeKey key;
  key.domainBox = u.layout().domain().box();
  for (int d = 0; d < grid::SpaceDim; ++d) {
    key.periodic[static_cast<std::size_t>(d)] =
        u.layout().domain().isPeriodic(d);
  }
  key.boxSize = u.layout().boxSize();
  key.nGhost = u.nGhost();
  key.nComp = u.nComp();
  const core::StepRhsSpec rhs;
  key.invDx = rhs.invDx;
  key.dissipation = rhs.dissipation;
  key.hasBoundary = false;
  std::uint64_t first = 0;
  for (int r = 0; r < reps; ++r) {
    const Span s(tracer, "analysis.rebind_gate");
    const std::uint64_t sig = analysis::stepSignature(
        solvers::buildStepProgram(scheme, dt, 1), fuse, key);
    if (r == 0) {
      first = sig;
    } else if (sig != first) {
      throw std::logic_error("gateProbe: step signature is not stable");
    }
  }
}

std::vector<Metric> perLayerMetrics(const Tracer& tracer,
                                    const LayerCounts& c) {
  const std::map<std::string, Tracer::Layer> layers = tracer.layers();
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? Tracer::Layer{} : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto total = [&](const char* name) { return layer(name).totalMs; };
  const auto mean = [&](const char* name) {
    const Tracer::Layer l = layer(name);
    return ratio(l.totalMs, static_cast<double>(l.count));
  };
  const double bytesPerExchange =
      ratio(c.exchangeBytes,
            static_cast<double>(layer("grid.exchange").count));
  const double poolCapacityS = c.threads * c.poolWallS;

  return {
      {"grid.exchange_ms", mean("grid.exchange"), "ms"},
      {"grid.exchange_bytes", bytesPerExchange, "B"},
      {"grid.exchange_gbps",
       ratio(bytesPerExchange, mean("grid.exchange") * 1e6), "GB/s"},
      {"core.rhs_ms", mean("core.rhs"), "ms"},
      {"core.rhs_ns_per_cell", ratio(total("core.rhs") * 1e6, c.rhsCells),
       "ns/cell"},
      {"core.workspace_peak_mb", c.workspacePeakBytes / (1024.0 * 1024.0),
       "MiB"},
      {"kernels.model_bytes_per_cell", c.modelBytesPerCell, "B/cell"},
      {"solvers.combine_ms", ratio(total("solvers.combine"), c.eagerSteps),
       "ms"},
      {"solvers.rhs_zero_ms", ratio(total("solvers.rhs_zero"), c.eagerSteps),
       "ms"},
      {"stepgraph.capture_ms", mean("stepgraph.capture"), "ms"},
      {"stepgraph.rebind_ms", mean("stepgraph.rebind"), "ms"},
      {"stepgraph.prepare_us", mean("stepgraph.prepare") * 1e3, "us"},
      {"stepgraph.phase_ms", mean("stepgraph.phase"), "ms"},
      {"stepgraph.phases_per_step", ratio(c.phases, c.captures), "count"},
      {"stepgraph.tasks_per_step", ratio(c.tasks, c.captures), "count"},
      {"stepgraph.edges_per_step", ratio(c.edges, c.captures), "count"},
      {"stepgraph.exchange_ops_per_step", ratio(c.exchangeOps, c.captures),
       "count"},
      {"stepgraph.exchange_depth", static_cast<double>(c.exchangeDepth),
       "count"},
      {"taskpool.scaling_eff", c.scalingEff, "ratio"},
      {"taskpool.utilization", ratio(c.poolBusyS, poolCapacityS), "ratio"},
      {"taskpool.idle_ms_per_step",
       ratio((poolCapacityS - c.poolBusyS) * 1e3, c.poolSteps), "ms"},
      {"taskpool.steal_ratio", ratio(c.tasksStolen, c.tasksExecuted),
       "ratio"},
      {"taskpool.idle_sleeps_per_step", ratio(c.idleSleeps, c.poolSteps),
       "count"},
      {"taskpool.domain_crossings_per_step",
       ratio(c.domainCrossings, c.poolSteps), "count"},
      {"serve.batch_ms", mean("serve.batch"), "ms"},
      {"serve.service_init_ms", mean("serve.construct"), "ms"},
      {"serve.cache_hit_ratio", ratio(c.cacheHits, c.solves), "ratio"},
      {"serve.retunes_per_batch", ratio(c.retunes, c.batches), "count"},
      {"serve.domains", static_cast<double>(c.maxDomains), "count"},
      {"serve.solve_ms_p99", harness::percentile(c.latenciesS, 99.0) * 1e3,
       "ms"},
      {"tuner.prior_us", mean("tuner.suggest_cold") * 1e3, "us"},
      {"tuner.hit_us", mean("tuner.suggest_warm") * 1e3, "us"},
      {"tuner.hit_ratio", ratio(c.tunerHits, c.tunerHits + c.tunerMisses),
       "ratio"},
      {"analysis.rebind_gate_us", mean("analysis.rebind_gate") * 1e3, "us"},
      {"trace.overhead_pct", c.overheadPct, "%"},
  };
}

} // namespace fluxdiv::benchsuite
