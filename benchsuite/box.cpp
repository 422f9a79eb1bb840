// The stepping workloads: one 128^3 periodic domain advanced by RK4, held
// as one 128^3 box (box128) or as 512 boxes of 16^3 (box16) — equal work,
// equal initial data, so the ratio of their step times is the paper's
// "can large boxes match small ones" comparison.

#include <omp.h>

#include <algorithm>
#include <array>
#include <memory>

#include "checks.hpp"
#include "grid/norms.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "layers.hpp"
#include "memmodel/traffic_model.hpp"
#include "timing.hpp"

namespace fluxdiv::benchsuite {

using grid::LevelData;
using Span = Tracer::Span;

namespace {

constexpr grid::Real kDt = 1e-4;
constexpr solvers::Scheme kScheme = solvers::Scheme::RK4;

/// Domain side and box side of a stepping workload.
struct Geometry {
  int domain = 128;
  int box = 128;
};

Geometry geometry(const Options& opt) {
  Geometry g;
  g.domain = opt.smoke ? 32 : 128;
  g.box = opt.workload == "box128" ? g.domain : (opt.smoke ? 8 : 16);
  return g;
}

/// What a user of the library builds to advance the problem: the solution
/// level, the RHS evaluator and the integrator, all at their defaults.
struct Problem {
  grid::DisjointBoxLayout layout;
  LevelData u;
  solvers::FluxDivRhs rhs;
  solvers::TimeIntegrator integ;

  Problem(const Geometry& g, int threads)
      : layout(grid::ProblemDomain(grid::Box::cube(g.domain)), g.box),
        u(layout, kernels::kNumComp, kernels::kNumGhost),
        rhs(serve::ServiceOptions{}.cfg, threads), integ(kScheme, layout) {
    kernels::initializeExemplar(u);
  }

  void advance() { integ.advance(u, kDt, rhs); }
};

/// Set the problem up `n` times anew — allocation, initial data and
/// one warm-up step, which captures the step graphs and first-touches the
/// stage storage — and keep the last. `setupS` receives each set-up's time.
std::unique_ptr<Problem> setUp(const Geometry& g, int threads, int n,
                               std::vector<double>& setupS) {
  std::unique_ptr<Problem> p;
  for (int i = 0; i < n; ++i) {
    p.reset();
    const harness::Timer t;
    p = std::make_unique<Problem>(g, threads);
    p->advance();
    setupS.push_back(t.seconds());
  }
  return p;
}

/// The end-to-end run: timed advance() calls at T threads. The last one is
/// re-run on the eager path as the output check.
void measure(const Options& opt, Problem& p, LevelData& snap, Result& res) {
  const std::vector<double> steps =
      timedLoop(opt.seconds, 5, [&](bool last) {
        if (last) {
          solvers::copyValid(p.u, snap);
        }
        const harness::Timer t;
        p.advance();
        return t.seconds();
      });
  p.integ.advanceEager(snap, kDt, p.rhs);
  res.check(compareBitwise(snap, p.u));

  res.attempted += steps.size();
  const double cells = static_cast<double>(p.u.totalCellsValid());
  res.add("latency_ms_p50", median(steps) * 1e3, "ms");
  res.add("latency_ms_p90", harness::percentile(steps, 90.0) * 1e3, "ms");
  res.add("mcell_steps_per_s",
          cells * static_cast<double>(steps.size()) / sum(steps) / 1e6,
          "Mcell-step/s");
  res.samples.push_back({"steps", static_cast<double>(steps.size()), "count"});
}

/// The per-layer run: one-thread advance() calls for the scaling
/// efficiency; then, in rotation, T-thread advance() calls and (a) the same
/// step through the executor's phase API on a bench-owned pool, untraced
/// and traced — the tracing overhead compares the two phase steps, and the
/// rotation cancels a drift of the host's speed from it; (b) the eager path
/// composed from public calls; (c) the capture, rebind, tuner and gate
/// calls, and the step admitted through a SolveService.
void trace(const Options& opt, Tracer& tracer, Problem& p, LevelData& snap,
           Result& res) {
  const int T = opt.threads;
  const core::StepProgram prog = solvers::buildStepProgram(kScheme, kDt);
  LayerCounts counts;

  // Switching the thread count re-captures the graphs in an untimed step.
  omp_set_num_threads(1);
  solvers::FluxDivRhs rhs1(p.rhs.config(), 1);
  p.integ.advance(p.u, kDt, rhs1);
  const std::vector<double> steps1 =
      timedLoop(0.25 * opt.seconds, 2, [&](bool) {
        const harness::Timer t;
        p.integ.advance(p.u, kDt, rhs1);
        return t.seconds();
      });
  omp_set_num_threads(T);
  p.advance();
  res.attempted += steps1.size() + 2;

  {
    core::StepExecOptions o = p.integ.stepExecutor(p.rhs)->options();
    core::TaskPool pool(T);
    o.sharedPool = &pool;
    o.domain = pool.createDomain(1, "bench");
    core::StepGraphExecutor exec(p.rhs.config(), T, o);
    core::StepRhsSpec spec;
    spec.invDx = p.rhs.invDx();
    spec.dissipation = p.rhs.dissipation();
    spec.boundary = p.rhs.boundary();
    captureProbe(tracer, exec, prog, p.u, snap, spec, counts);
    pool.resetStats();
    // Rotating: advance() at T threads (0, for the scaling efficiency), the
    // phase step untraced (1) and the same phase step traced (2). Each phase
    // kind follows advance() and the other phase kind equally often, so the
    // pool's wake-up after advance() weighs on both alike. The last step is
    // a traced one, so it is the one checked against advance().
    constexpr std::array<int, 6> kRotation = {0, 1, 2, 0, 2, 1};
    Tracer off(false);
    std::vector<double> ref;
    std::vector<double> untraced;
    std::vector<double> traced;
    int request = 0;
    timedLoop(0.5 * opt.seconds, 12, [&](bool last) {
      const std::size_t n = ref.size() + untraced.size() + traced.size();
      const int kind = last ? 2 : kRotation[n % kRotation.size()];
      if (last) {
        solvers::copyValid(p.u, snap);
      }
      const harness::Timer t;
      if (kind == 0) {
        p.advance();
      } else if (kind == 1) {
        phaseStep(off, exec, pool, prog, p.u, spec, -1);
      } else {
        phaseStep(tracer, exec, pool, prog, p.u, spec, request++);
      }
      std::vector<double>& into =
          kind == 0 ? ref : (kind == 1 ? untraced : traced);
      into.push_back(t.seconds());
      return into.back();
    });
    const core::TaskPoolStats st = pool.stats();
    counts.threads = T;
    counts.poolSteps = static_cast<double>(untraced.size() + traced.size());
    counts.poolWallS = sum(untraced) + sum(traced);
    counts.poolBusyS = st.busySeconds;
    counts.tasksExecuted = static_cast<double>(st.executed);
    counts.tasksStolen = static_cast<double>(st.stolen);
    counts.idleSleeps = static_cast<double>(st.idleSleeps);
    counts.domainCrossings = static_cast<double>(st.domainCrossings);
    // The i-th untraced and i-th traced steps ran next to each other.
    std::vector<double> pairRatio;
    for (std::size_t i = 0; i < std::min(untraced.size(), traced.size());
         ++i) {
      pairRatio.push_back(traced[i] / untraced[i]);
    }
    counts.overheadPct = (median(pairRatio) - 1.0) * 100.0;
    counts.scalingEff = median(steps1) / (T * median(ref));
    res.attempted += ref.size() + untraced.size() + traced.size();
    p.integ.advance(snap, kDt, p.rhs);
    res.check(compareBitwise(snap, p.u));
    gateProbe(tracer, kScheme, kDt, p.u, exec.stats().fuse, 20);
  }

  {
    std::vector<LevelData> stages = stageLevels(prog, p.layout);
    core::FluxDivRunner runner(p.rhs.config(), T);
    int request = 0;
    const std::vector<double> steps =
        timedLoop(0.15 * opt.seconds, 1, [&](bool last) {
          if (last) {
            solvers::copyValid(p.u, snap);
          }
          const harness::Timer t;
          eagerStep(tracer, runner, prog, p.u, stages, p.rhs.invDx(),
                    counts, request++);
          return t.seconds();
        });
    res.attempted += steps.size();
    p.integ.advanceEager(snap, kDt, p.rhs);
    res.check(compareBitwise(snap, p.u));
  }

  const tuner::MachineSignature machine = tuner::MachineSignature::host();
  const int box = p.layout.boxSize()[0];
  tunerProbe(tracer, machine,
             tuner::TuneKey{solvers::schemeName(kScheme), box,
                            kernels::kNumGhost, T},
             static_cast<int>(p.u.size()), 5);
  counts.modelBytesPerCell =
      memmodel::estimateTraffic(p.rhs.config(), box, machine.llcBytes)
          .bytesPerCell;

  // The same step admitted through the service: one cold solve (cost-model
  // prior, capture) and two warm ones (TuneDB hit, rebind), each from the
  // initial data, so all three must agree bit for bit.
  tuner::TuneDB db(machine);
  serve::ServiceOptions so;
  so.threads = T;
  so.tunedb = &db;
  std::unique_ptr<serve::SolveService> svc;
  {
    const Span s(tracer, "serve.construct");
    svc = std::make_unique<serve::SolveService>(so);
  }
  serve::InstanceSpec spec;
  spec.name = opt.workload;
  spec.scheme = kScheme;
  spec.boxSize = box;
  spec.nBoxes = static_cast<int>(p.u.size());
  spec.steps = 1;
  spec.dt = kDt;
  LevelData state(serve::specLayout(spec), kernels::kNumComp,
                  kernels::kNumGhost);
  std::uint64_t first = 0;
  for (int b = 0; b < 3; ++b) {
    kernels::initializeExemplar(state);
    serve::ServiceReport rep;
    {
      const Span batch(tracer, "serve.batch", b);
      rep = svc->run({spec}, {&state});
    }
    counts.addServiceReport(rep, T);
    counts.maxDomains = std::max(counts.maxDomains, svc->pool().domainCount());
    res.attempted += 1;
    if (b == 0) {
      first = validHash(state);
      res.check(checkFinite(state));
    } else {
      res.check(checkHash(first, state));
    }
  }
  counts.tunerHits = static_cast<double>(db.counters().hits);
  counts.tunerMisses = static_cast<double>(db.counters().misses);

  res.metrics = perLayerMetrics(tracer, counts);
}

} // namespace

Result runBox(const Options& opt, Tracer& tracer) {
  omp_set_num_threads(opt.threads);
  Result res;
  std::vector<double> setupS;
  const std::unique_ptr<Problem> p =
      setUp(geometry(opt), opt.threads, opt.traced ? 1 : 3, setupS);
  // Taken after the warm-up step; every later step must conserve it.
  const std::array<grid::Real, 8> sums0 = grid::levelSums(p->u);
  LevelData snap(p->layout, kernels::kNumComp, kernels::kNumGhost);
  if (opt.traced) {
    trace(opt, tracer, *p, snap, res);
  } else {
    measure(opt, *p, snap, res);
    res.add("setup_s", median(setupS), "s");
  }
  res.check(checkFinite(p->u));
  res.check(checkConservation(sums0, p->u, 1e-10));
  return res;
}

} // namespace fluxdiv::benchsuite
