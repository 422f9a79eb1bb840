// The service workload: batches of one-step solves of a fixed mix of 12
// small shapes through serve::SolveService, closed loop (the service's
// auto admission window). serve-warm keeps one service and one TuneDB for
// the whole run, so every solve rebinds a cached executor and hits the
// tuner; the first batches, which capture and take cost-model priors, are
// its set-up.

#include <omp.h>

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>

#include "checks.hpp"
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

/// Task domains a run may create. The pool throws at 256 (one domain per
/// cached executor, never freed), so the run stops well before that.
constexpr int kDomainCap = 200;

/// The solve shapes: {ssprk3, rk4} x box side x boxes per level.
std::vector<serve::InstanceSpec> shapeSpecs(bool smoke) {
  const std::vector<int> sides =
      smoke ? std::vector<int>{8, 12} : std::vector<int>{12, 16, 24};
  const std::vector<int> counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{2, 4};
  std::vector<serve::InstanceSpec> specs;
  for (const solvers::Scheme scheme :
       {solvers::Scheme::SSPRK3, solvers::Scheme::RK4}) {
    for (const int side : sides) {
      for (const int n : counts) {
        serve::InstanceSpec s;
        s.scheme = scheme;
        s.boxSize = side;
        s.nBoxes = n;
        s.steps = 1;
        s.dt = kDt;
        s.name = std::string(solvers::schemeName(scheme)) + "-b" +
                 std::to_string(side) + "-n" + std::to_string(n);
        specs.push_back(s);
      }
    }
  }
  return specs;
}

/// The inputs of a service run: per shape the initial state and the hash
/// of its solo TimeIntegrator step, and the states batches solve in place.
class Inputs {
public:
  /// `copies` solves of every shape per batch. States come in two
  /// generations used by alternate batches, so no solve ever lands on the
  /// allocation its cached executor last ran on: every cached admission
  /// rebinds, as fresh requests would.
  Inputs(std::vector<serve::InstanceSpec> shapes, int copies, int threads,
         std::uint64_t seed)
      : shapes_(std::move(shapes)), copies_(copies), rng_(seed) {
    for (const serve::InstanceSpec& spec : shapes_) {
      LevelData& u = init_.emplace_back(serve::specLayout(spec),
                                        kernels::kNumComp,
                                        kernels::kNumGhost);
      kernels::initializeExemplar(u);
      LevelData ref = u;
      solvers::TimeIntegrator integ(spec.scheme, u.layout());
      solvers::FluxDivRhs rhs(serve::ServiceOptions{}.cfg, threads);
      integ.advance(ref, spec.dt, rhs);
      refHash_.push_back(validHash(ref));
    }
    for (int gen = 0; gen < 2; ++gen) {
      for (const LevelData& u : init_) {
        for (int c = 0; c < copies_; ++c) {
          states_.push_back(std::make_unique<LevelData>(
              u.layout(), kernels::kNumComp, kernels::kNumGhost));
        }
      }
    }
  }

  [[nodiscard]] const std::vector<serve::InstanceSpec>& shapes() const {
    return shapes_;
  }
  [[nodiscard]] const LevelData& initial(std::size_t shape) const {
    return init_[shape];
  }
  [[nodiscard]] std::uint64_t refHash(std::size_t shape) const {
    return refHash_[shape];
  }

  /// The next batch: every shape `copies` times in a seeded random order,
  /// each on a state reset to the shape's initial data.
  struct Batch {
    std::vector<serve::InstanceSpec> specs;
    std::vector<LevelData*> states;
    std::vector<std::size_t> shape;
    double cells = 0; ///< valid cells over the batch (one step each)
  };
  Batch next() {
    Batch b;
    for (std::size_t s = 0; s < shapes_.size(); ++s) {
      for (int c = 0; c < copies_; ++c) {
        b.shape.push_back(s);
      }
    }
    std::shuffle(b.shape.begin(), b.shape.end(), rng_);
    std::vector<int> used(shapes_.size(), 0);
    const std::size_t gen = batches_++ % 2;
    for (const std::size_t s : b.shape) {
      LevelData* u = states_[(gen * shapes_.size() + s) *
                                 static_cast<std::size_t>(copies_) +
                             static_cast<std::size_t>(used[s]++)]
                         .get();
      solvers::copyValid(init_[s], *u);
      b.specs.push_back(shapes_[s]);
      b.states.push_back(u);
      b.cells += static_cast<double>(u->totalCellsValid());
    }
    return b;
  }

  /// Check every solve of a finished batch against its shape's reference.
  void check(const Batch& b, Result& res) const {
    for (std::size_t i = 0; i < b.states.size(); ++i) {
      const std::string diag = checkHash(refHash_[b.shape[i]], *b.states[i]);
      res.check(diag.empty() ? diag : b.specs[i].name + ": " + diag);
    }
    res.attempted += b.states.size();
  }

private:
  std::vector<serve::InstanceSpec> shapes_;
  int copies_;
  std::mt19937_64 rng_;
  std::vector<LevelData> init_;
  std::vector<std::uint64_t> refHash_;
  std::vector<std::unique_ptr<LevelData>> states_;
  std::size_t batches_ = 0;
};

/// One service with its TuneDB, built the way a restarted process would.
struct Service {
  std::unique_ptr<tuner::TuneDB> db;
  std::unique_ptr<serve::SolveService> svc;

  Service(Tracer& tracer, int threads) {
    const Span s(tracer, "serve.construct");
    db = std::make_unique<tuner::TuneDB>();
    serve::ServiceOptions so;
    so.threads = threads;
    so.tunedb = db.get();
    svc = std::make_unique<serve::SolveService>(so);
  }
};

/// Batches of one run phase, with what they measured.
struct Phase {
  std::vector<double> batchS; ///< measured seconds per batch
  double cells = 0;           ///< valid cells solved (one step each)
  std::vector<double> latencyS;

  /// Solved cells per second, over the measured time.
  [[nodiscard]] double rate() const { return cells / sum(batchS); }
};

/// Runs the batches of the workload.
class BatchRunner {
public:
  BatchRunner(Inputs& in, Result& res) : in_(in), res_(res) {}

  /// One batch on `s`; returns the seconds of its run() call. Preparing
  /// the states and checking the outputs is not measured.
  double batch(Tracer& tracer, Service& s, int threads, Phase& phase,
               LayerCounts* counts) {
    const Inputs::Batch b = in_.next();
    serve::ServiceReport rep;
    const harness::Timer t;
    {
      const Span span(tracer, "serve.batch", requests_++);
      rep = s.svc->run(b.specs, b.states);
    }
    const double secs = t.seconds();
    const int domains = s.svc->pool().domainCount();
    if (counts != nullptr) {
      counts->addServiceReport(rep, threads);
      counts->maxDomains = std::max(counts->maxDomains, domains);
    }
    if (domains > kDomainCap) {
      throw std::runtime_error("service holds " + std::to_string(domains) +
                               " task domains, over the cap of " +
                               std::to_string(kDomainCap));
    }
    in_.check(b, res_);
    phase.batchS.push_back(secs);
    phase.cells += b.cells;
    for (const serve::InstanceReport& r : rep.instances) {
      phase.latencyS.push_back(r.latencySeconds);
    }
    return secs;
  }

  /// Batches until `budgetS` has passed, at least `minBatches` of them.
  Phase loop(Tracer& tracer, Service& s, int threads, double budgetS,
             std::size_t minBatches, LayerCounts* counts = nullptr) {
    Phase phase;
    timedLoop(budgetS, minBatches, [&](bool) {
      return batch(tracer, s, threads, phase, counts);
    });
    return phase;
  }

  /// What a user pays before steady state: build the service and run
  /// `warmups` batches on it, which capture every shape's executors and
  /// seed the TuneDB. Replaces `keep` and returns the seconds it took.
  double setUp(std::unique_ptr<Service>& keep, int threads, int warmups) {
    Tracer off(false);
    Phase phase;
    keep.reset();
    const harness::Timer t;
    keep = std::make_unique<Service>(off, threads);
    double secs = t.seconds();
    for (int i = 0; i < warmups; ++i) {
      secs += batch(off, *keep, threads, phase, nullptr);
    }
    return secs;
  }

private:
  Inputs& in_;
  Result& res_;
  int requests_ = 0;
};

/// The end-to-end run: timed batches on the set-up service.
void measure(const Options& opt, BatchRunner& d, Result& res) {
  Tracer off(false);
  std::vector<double> setupS;
  std::unique_ptr<Service> warm;
  for (int i = 0; i < 3; ++i) {
    setupS.push_back(d.setUp(warm, opt.threads, 3));
  }
  const Phase p = d.loop(off, *warm, opt.threads, opt.seconds, 3);

  res.add("latency_ms_p50", median(p.latencyS) * 1e3, "ms");
  res.add("latency_ms_p90", harness::percentile(p.latencyS, 90.0) * 1e3,
          "ms");
  res.add("mcell_steps_per_s", p.rate() / 1e6, "Mcell-step/s");
  res.add("setup_s", median(setupS), "s");
  res.samples.push_back(
      {"batches", static_cast<double>(p.batchS.size()), "count"});
  res.samples.push_back(
      {"solves", static_cast<double>(p.latencyS.size()), "count"});
}

/// Layer probes on every shape: capture and rebind, one step through the
/// phase API and one composed eager step (both checked against the shape's
/// reference), the rebind gate, the tuner and the traffic model.
void probeShapes(const Options& opt, Tracer& tracer, const Inputs& in,
                 LayerCounts& counts, Result& res) {
  const int T = opt.threads;
  const core::VariantConfig cfg = serve::ServiceOptions{}.cfg;
  const tuner::MachineSignature machine = tuner::MachineSignature::host();
  core::TaskPool pool(T);
  core::FluxDivRunner runner(cfg, T);
  // The executor options a default TimeIntegrator resolves to.
  solvers::TimeIntegrator defaults(solvers::Scheme::RK4,
                                   in.initial(0).layout());
  solvers::FluxDivRhs defaultRhs(cfg, T);
  const core::StepExecOptions base =
      defaults.stepExecutor(defaultRhs)->options();
  const core::StepRhsSpec rhs; // the physics every service solve runs
  double cells = 0;
  double modelBytes = 0;
  for (std::size_t s = 0; s < in.shapes().size(); ++s) {
    const serve::InstanceSpec& spec = in.shapes()[s];
    const core::StepProgram prog =
        solvers::buildStepProgram(spec.scheme, spec.dt);
    LevelData u = in.initial(s);
    LevelData other = in.initial(s);
    core::StepExecOptions o = base;
    o.sharedPool = &pool;
    o.domain = pool.createDomain(1, spec.name);
    core::StepGraphExecutor exec(cfg, T, o);
    captureProbe(tracer, exec, prog, u, other, rhs, counts);
    phaseStep(tracer, exec, pool, prog, u, rhs, static_cast<int>(s));
    res.check(checkHash(in.refHash(s), u));

    std::vector<LevelData> stages = stageLevels(prog, other.layout());
    eagerStep(tracer, runner, prog, other, stages, rhs.invDx, counts,
              static_cast<int>(s));
    res.check(checkHash(in.refHash(s), other));
    res.attempted += 2;

    gateProbe(tracer, spec.scheme, spec.dt, u, exec.stats().fuse, 5);
    tunerProbe(tracer, machine,
               tuner::TuneKey{solvers::schemeName(spec.scheme), spec.boxSize,
                              kernels::kNumGhost, T},
               spec.nBoxes, 2);
    const double c = static_cast<double>(u.totalCellsValid());
    cells += c;
    modelBytes +=
        c * memmodel::estimateTraffic(cfg, spec.boxSize, machine.llcBytes)
                .bytesPerCell;
  }
  counts.modelBytesPerCell = modelBytes / cells;
}

/// The per-layer run: batches on a one-thread service for the scaling
/// efficiency; then untraced (reference) and traced batches alternating, so
/// a drift of the host's speed cancels from the tracing overhead; then the
/// layer probes.
void trace(const Options& opt, Tracer& tracer, const Inputs& in, BatchRunner& d,
           Result& res) {
  const int T = opt.threads;
  Tracer off(false);
  LayerCounts counts;
  Phase one;
  {
    std::unique_ptr<Service> warm1;
    d.setUp(warm1, 1, 1);
    one = d.loop(off, *warm1, 1, 0.25 * opt.seconds, 1);
  }

  std::unique_ptr<Service> warm;
  d.setUp(warm, T, 3);
  const tuner::TuneDBCounters db0 = warm->db->counters();
  Phase ref;
  Phase traced;
  timedLoop(0.55 * opt.seconds, 6, [&](bool) {
    return traced.batchS.size() < ref.batchS.size()
               ? d.batch(tracer, *warm, T, traced, &counts)
               : d.batch(off, *warm, T, ref, nullptr);
  });
  counts.tunerHits = static_cast<double>(warm->db->counters().hits - db0.hits);
  counts.tunerMisses =
      static_cast<double>(warm->db->counters().misses - db0.misses);
  counts.scalingEff = ref.rate() / (T * one.rate());
  counts.overheadPct =
      (median(traced.batchS) / median(ref.batchS) - 1.0) * 100.0;
  warm.reset();

  // Service construction timed directly (the workload builds one per run).
  for (int i = 0; i < 3; ++i) {
    const Service s(tracer, T);
  }
  probeShapes(opt, tracer, in, counts, res);
  res.metrics = perLayerMetrics(tracer, counts);
}

} // namespace

Result runServe(const Options& opt, Tracer& tracer) {
  omp_set_num_threads(opt.threads);
  Result res;
  std::vector<serve::InstanceSpec> shapes = shapeSpecs(opt.smoke);
  // Each distinct shape, and each concurrent duplicate of it, holds a task
  // domain for the service's lifetime. The auto admission window is at
  // most threads + 1 solves; the per-batch check enforces the exact count.
  const std::size_t worstDomains =
      shapes.size() * static_cast<std::size_t>(opt.threads + 1);
  if (worstDomains > static_cast<std::size_t>(kDomainCap)) {
    throw std::logic_error("serve mix could need " +
                           std::to_string(worstDomains) +
                           " task domains, over the cap of " +
                           std::to_string(kDomainCap));
  }
  Inputs in(std::move(shapes), 4, opt.threads, opt.seed);
  BatchRunner d(in, res);
  if (opt.traced) {
    trace(opt, tracer, in, d, res);
  } else {
    measure(opt, d, res);
  }
  return res;
}

} // namespace fluxdiv::benchsuite
