// End-to-end tests of the throughput service (src/serve): workload spec
// parsing, bit-identity of every concurrently-admitted instance against
// its solo StepGraphExecutor run across schemes x policies,
// admission through the TuneDB (cold = cost-model prior + one measurement,
// warm = zero re-tunes), and the report counters.

#include "serve/solve_service.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"
#include "solvers/rhs.hpp"

namespace fluxdiv::serve {
namespace {

using grid::LevelData;

/// Solo reference: the same spec advanced by a private TimeIntegrator
/// (own StepGraphExecutor, own pool) with the same within-box schedule.
LevelData soloSolve(const InstanceSpec& spec, const core::VariantConfig& cfg,
                    int threads, core::LevelPolicy policy) {
  const grid::DisjointBoxLayout dbl = specLayout(spec);
  LevelData u(dbl, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(u);
  solvers::FluxDivRhs rhs(cfg, threads);
  solvers::TimeIntegrator integ(spec.scheme, dbl);
  integ.setLevelPolicy(policy);
  integ.advanceSteps(u, spec.dt, rhs, spec.steps);
  return u;
}

InstanceSpec pinnedSpec(const std::string& name, solvers::Scheme scheme,
                        int boxSize, int nBoxes, core::LevelPolicy policy,
                        int steps = 2) {
  InstanceSpec spec;
  spec.name = name;
  spec.scheme = scheme;
  spec.boxSize = boxSize;
  spec.nBoxes = nBoxes;
  spec.steps = steps;
  spec.autoPolicy = false;
  spec.policy = policy;
  return spec;
}

TEST(Workload, ParsesNamesAndKeyValueTokens) {
  const InstanceSpec spec = parseInstanceSpec(
      "burst0 scheme=ssprk3 box=8 nboxes=3 steps=5 dt=2e-4 weight=3 "
      "fuse=fused policy=sequential");
  EXPECT_EQ(spec.name, "burst0");
  EXPECT_EQ(spec.scheme, solvers::Scheme::SSPRK3);
  EXPECT_EQ(spec.boxSize, 8);
  EXPECT_EQ(spec.nBoxes, 3);
  EXPECT_EQ(spec.steps, 5);
  EXPECT_DOUBLE_EQ(spec.dt, 2e-4);
  EXPECT_EQ(spec.weight, 3);
  EXPECT_FALSE(spec.autoPolicy);
  EXPECT_EQ(spec.policy, core::LevelPolicy::BoxSequential);

  const InstanceSpec dflt = parseInstanceSpec("plain fuse=auto");
  EXPECT_TRUE(dflt.autoPolicy);

  EXPECT_THROW(parseInstanceSpec("x scheme=rk9"), std::invalid_argument);
  EXPECT_THROW(parseInstanceSpec("x box=0"), std::invalid_argument);
  EXPECT_THROW(parseInstanceSpec("x bogus=1"), std::invalid_argument);
  EXPECT_THROW(parseInstanceSpec("scheme=rk4"), std::invalid_argument);
  // dt must be finite and positive.
  for (const std::string dt : {"nan", "inf", "0", "-1e-3"}) {
    EXPECT_THROW(parseInstanceSpec("x dt=" + dt), std::invalid_argument)
        << "dt=" << dt;
  }
  // Every solve runs the fused graph: `fuse=` takes only fused and auto.
  // The eager reference path and the removed modes are unknown tokens
  // like any other.
  for (const std::string mode : {"eager", "commavoid", "staged"}) {
    try {
      (void)parseInstanceSpec("x fuse=" + mode);
      ADD_FAILURE() << "fuse=" << mode << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad token 'fuse=" + mode + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // box x nboxes cells along x, plus ghosts on both sides, must fit in
  // int, or the layout's domain wraps negative (2000000 x 2000 would run
  // a solve of zero tasks). The last extent token takes the blame;
  // nboxes defaults to 4.
  const int widest =
      std::numeric_limits<int>::max() - 2 * kernels::kNumGhost;
  EXPECT_EQ(parseInstanceSpec("x nboxes=1 box=" + std::to_string(widest))
                .boxSize,
            widest);
  for (const auto& [line, token] :
       {std::pair<std::string, std::string>{
            "x box=2000000 nboxes=2000", "nboxes=2000"},
        {"x nboxes=2000 box=2000000 steps=1", "box=2000000"},
        {"x box=1000000000", "box=1000000000"},
        {"x nboxes=1 box=" + std::to_string(widest + 1),
         "box=" + std::to_string(widest + 1)}}) {
    try {
      (void)parseInstanceSpec(line);
      ADD_FAILURE() << "'" << line << "' must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad token '" + token + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Workload, RemovedHybridPolicyIsABadToken) {
  // Workload files written before the hybrid level policy was folded into
  // the parallel policy's logical tiles get the ordinary diagnostic.
  try {
    (void)parseInstanceSpec("old scheme=rk4 box=16 policy=hybrid");
    ADD_FAILURE() << "policy=hybrid must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bad token 'policy=hybrid'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Workload, StreamSkipsCommentsAndBlankLines) {
  std::istringstream in("# a workload\n"
                        "\n"
                        "a scheme=rk4 box=8 nboxes=2\n"
                        "b scheme=euler box=8 nboxes=1 # trailing note\n");
  const std::vector<InstanceSpec> specs = parseWorkload(in);
  ASSERT_EQ(specs.size(), 2U);
  EXPECT_EQ(specs[0].name, "a");
  EXPECT_EQ(specs[1].scheme, solvers::Scheme::ForwardEuler);
}

TEST(SolveService, SingleInstanceBitIdenticalToSolo) {
  const InstanceSpec spec = pinnedSpec("one", solvers::Scheme::RK4, 8, 2,
                                       core::LevelPolicy::BoxParallel);
  ServiceOptions opts;
  opts.threads = 3;
  SolveService service(opts);
  LevelData u(specLayout(spec), kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(u);
  service.run({spec}, {&u});
  const LevelData ref =
      soloSolve(spec, opts.cfg, 2, core::LevelPolicy::BoxParallel);
  EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0);
}

TEST(SolveService, ConcurrentInstancesBitIdenticalToSoloAcrossSchemes) {
  // The acceptance matrix: schemes x policies admitted together into one
  // pool, every solution compared bit-for-bit with its solo run.
  std::vector<InstanceSpec> specs;
  specs.push_back(pinnedSpec("fe", solvers::Scheme::ForwardEuler, 8, 3,
                             core::LevelPolicy::BoxParallel));
  specs.push_back(pinnedSpec("mp", solvers::Scheme::Midpoint, 8, 2,
                             core::LevelPolicy::BoxSequential));
  specs.push_back(pinnedSpec("s3", solvers::Scheme::SSPRK3, 8, 2,
                             core::LevelPolicy::BoxParallel));
  // A 24^3 box: its 20-cell interior lowers to 2 x 2 logical tiles.
  specs.push_back(pinnedSpec("r4", solvers::Scheme::RK4, 24, 1,
                             core::LevelPolicy::BoxParallel));
  specs.push_back(pinnedSpec("r4seq", solvers::Scheme::RK4, 8, 2,
                             core::LevelPolicy::BoxSequential));

  ServiceOptions opts;
  opts.threads = 4;
  SolveService service(opts);
  std::vector<std::unique_ptr<LevelData>> owned;
  std::vector<LevelData*> states;
  for (const InstanceSpec& spec : specs) {
    owned.push_back(std::make_unique<LevelData>(
        specLayout(spec), kernels::kNumComp, kernels::kNumGhost));
    kernels::initializeExemplar(*owned.back());
    states.push_back(owned.back().get());
  }
  const ServiceReport report = service.run(specs, states);

  ASSERT_EQ(report.instances.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const LevelData ref =
        soloSolve(specs[i], opts.cfg, 2, specs[i].policy);
    EXPECT_EQ(LevelData::maxAbsDiffValid(ref, *states[i]), 0.0)
        << specs[i].name;
    EXPECT_GT(report.instances[i].domain.executed, 0U) << specs[i].name;
    EXPECT_GT(report.instances[i].latencySeconds, 0.0) << specs[i].name;
  }
  EXPECT_GT(report.tasksExecuted, 0U);
  EXPECT_GE(report.submissions, specs.size());
  EXPECT_GT(report.solvesPerSec, 0.0);
  EXPECT_GE(report.poolUtilization, 0.0);
  EXPECT_LE(report.poolUtilization, 1.0 + 1e-9);
  EXPECT_GE(report.latency.p99, report.latency.p50);
}

TEST(SolveService, AdmissionWindowStillCompletesEverything) {
  std::vector<InstanceSpec> specs;
  for (int i = 0; i < 5; ++i) {
    // Two statements: GCC 12 at -O3 reports a false -Wrestrict on
    // "w" + std::to_string(i), which breaks -DFLUXDIV_WERROR=ON builds.
    std::string name = "w";
    name += std::to_string(i);
    specs.push_back(pinnedSpec(name,
                               solvers::Scheme::Midpoint, 8, 2,
                               core::LevelPolicy::BoxParallel, 1));
  }
  ServiceOptions opts;
  opts.threads = 2;
  opts.maxConcurrent = 2;
  SolveService service(opts);
  const ServiceReport report = service.run(specs);
  ASSERT_EQ(report.instances.size(), specs.size());
  for (const InstanceReport& r : report.instances) {
    EXPECT_GT(r.domain.executed, 0U) << r.name;
  }
}

TEST(SolveService, RepeatTrafficReusesCapturedGraphs) {
  // Same service, second run over the same shape: the executor cached
  // for that shape is reused, so the second solve rebinds its captured
  // graph instead of capturing again, and nothing deadlocks.
  const InstanceSpec spec =
      pinnedSpec("rep", solvers::Scheme::Midpoint, 8, 2,
                 core::LevelPolicy::BoxParallel, 3);
  ServiceOptions opts;
  opts.threads = 2;
  SolveService service(opts);
  const ServiceReport r1 = service.run({spec});
  const ServiceReport r2 = service.run({spec});
  ASSERT_EQ(r1.instances.size(), 1U);
  ASSERT_EQ(r2.instances.size(), 1U);
  // One capture per solve shape, one graph submission per solve.
  EXPECT_EQ(r1.instances[0].cacheHits, 0U);
  EXPECT_EQ(r2.instances[0].cacheHits, 1U);
}

TEST(SolveService, SecondRunOverUnchangedWorkloadNeverRetunes) {
  std::vector<InstanceSpec> specs;
  InstanceSpec a;
  a.name = "auto0";
  a.scheme = solvers::Scheme::RK4;
  a.boxSize = 8;
  a.nBoxes = 2;
  a.steps = 1;
  specs.push_back(a);
  InstanceSpec b = a;
  b.name = "auto1";
  b.scheme = solvers::Scheme::Midpoint;
  specs.push_back(b);
  InstanceSpec c = a; // same key as a: one tune covers both
  c.name = "auto2";
  specs.push_back(c);

  tuner::TuneDB db(tuner::MachineSignature::host());
  ServiceOptions opts;
  opts.threads = 2;
  opts.tunedb = &db;
  SolveService service(opts);

  const ServiceReport cold = service.run(specs);
  EXPECT_GT(cold.retunes, 0U) << "cold keys must be tuned once";
  EXPECT_LE(cold.retunes, specs.size());
  EXPECT_EQ(db.size(), 2U) << "two distinct keys measured";

  const ServiceReport warm = service.run(specs);
  EXPECT_EQ(warm.retunes, 0U)
      << "unchanged workload must be admitted entirely from the TuneDB";
  for (const InstanceReport& r : warm.instances) {
    EXPECT_FALSE(r.tunedFromPrior) << r.name;
  }
  EXPECT_GE(db.counters().hits, specs.size());
}

TEST(SolveService, TunedAdmissionStillBitIdenticalToSolo) {
  // Auto-tuned knobs are reported back, and the solve they produce is
  // bit-identical to a solo run under the same (reported) knobs.
  InstanceSpec spec;
  spec.name = "tuned";
  spec.scheme = solvers::Scheme::SSPRK3;
  spec.boxSize = 8;
  spec.nBoxes = 2;
  spec.steps = 2;

  tuner::TuneDB db(tuner::MachineSignature::host());
  ServiceOptions opts;
  opts.threads = 3;
  opts.tunedb = &db;
  SolveService service(opts);
  LevelData u(specLayout(spec), kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(u);
  const ServiceReport report = service.run({spec}, {&u});
  ASSERT_EQ(report.instances.size(), 1U);
  const LevelData ref =
      soloSolve(spec, opts.cfg, 2, report.instances[0].policy);
  EXPECT_EQ(LevelData::maxAbsDiffValid(ref, u), 0.0);
}

TEST(SolveService, ReportPrinterMentionsEveryInstance) {
  const InstanceSpec spec =
      pinnedSpec("printed", solvers::Scheme::ForwardEuler, 8, 1,
                 core::LevelPolicy::BoxParallel, 1);
  ServiceOptions opts;
  opts.threads = 1;
  SolveService service(opts);
  const ServiceReport report = service.run({spec});
  std::ostringstream os;
  printServiceReport(os, report);
  EXPECT_NE(os.str().find("printed"), std::string::npos);
  EXPECT_NE(os.str().find("solves/s"), std::string::npos);
}

} // namespace
} // namespace fluxdiv::serve
