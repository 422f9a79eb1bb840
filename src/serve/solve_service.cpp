#include "serve/solve_service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/stepcheck.hpp"
#include "core/stepgraph.hpp"
#include "harness/timer.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"

namespace fluxdiv::serve {

using core::TaskPool;
using grid::LevelData;

// ---------------------------------------------------------------------------
// Workload spec parsing

namespace {

bool toInt(const std::string& text, int& out) {
  try {
    std::size_t used = 0;
    out = std::stoi(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool toReal(const std::string& text, grid::Real& out) {
  try {
    std::size_t used = 0;
    out = static_cast<grid::Real>(std::stod(text, &used));
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

[[noreturn]] void badToken(const std::string& line,
                           const std::string& token) {
  throw std::invalid_argument("workload spec: bad token '" + token +
                              "' in line '" + line + "'");
}

} // namespace

InstanceSpec parseInstanceSpec(const std::string& line) {
  std::istringstream in(line);
  InstanceSpec spec;
  if (!(in >> spec.name) || spec.name.find('=') != std::string::npos) {
    throw std::invalid_argument(
        "workload spec: line must start with an instance name: '" + line +
        "'");
  }
  std::string token;
  std::string extentToken; ///< the last box= or nboxes= token
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      badToken(line, token);
    }
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    if (key == "scheme") {
      if (!solvers::parseScheme(val, spec.scheme)) {
        badToken(line, token);
      }
    } else if (key == "box") {
      if (!toInt(val, spec.boxSize) || spec.boxSize < 1) {
        badToken(line, token);
      }
      extentToken = token;
    } else if (key == "nboxes") {
      if (!toInt(val, spec.nBoxes) || spec.nBoxes < 1) {
        badToken(line, token);
      }
      extentToken = token;
    } else if (key == "steps") {
      if (!toInt(val, spec.steps) || spec.steps < 1) {
        badToken(line, token);
      }
    } else if (key == "dt") {
      // A NaN dt would never match itself in the executor-cache lookup,
      // so every such solve would build a new executor and domain.
      if (!toReal(val, spec.dt) || !std::isfinite(spec.dt) ||
          spec.dt <= 0) {
        badToken(line, token);
      }
    } else if (key == "weight") {
      if (!toInt(val, spec.weight) || spec.weight < 1) {
        badToken(line, token);
      }
    } else if (key == "fuse") {
      if (val != "fused" && val != "auto") {
        badToken(line, token);
      }
    } else if (key == "policy") {
      spec.autoPolicy = (val == "auto");
      if (!spec.autoPolicy && !core::parseLevelPolicy(val, spec.policy)) {
        badToken(line, token);
      }
    } else {
      badToken(line, token);
    }
  }
  // specLayout's domain is box * nboxes cells long in x; with its ghost
  // layers that extent must fit in int, or the layout overflows.
  const std::int64_t ghostedX =
      std::int64_t{spec.boxSize} * spec.nBoxes + 2 * kernels::kNumGhost;
  if (ghostedX > std::numeric_limits<int>::max()) {
    badToken(line, extentToken);
  }
  return spec;
}

std::vector<InstanceSpec> parseWorkload(std::istream& in) {
  std::vector<InstanceSpec> specs;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    specs.push_back(parseInstanceSpec(line));
  }
  return specs;
}

std::vector<InstanceSpec> loadWorkload(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read workload spec: " + path);
  }
  return parseWorkload(in);
}

grid::DisjointBoxLayout specLayout(const InstanceSpec& spec) {
  const int n = spec.boxSize;
  const grid::Box domain(
      grid::IntVect::zero(),
      grid::IntVect(n * spec.nBoxes - 1, n - 1, n - 1));
  return grid::DisjointBoxLayout(grid::ProblemDomain(domain), n);
}

// ---------------------------------------------------------------------------
// SolveService

/// One cached solve shape: the executor (whose graph cache persists
/// across solves of the shape), its pool-lifetime task domain, and the
/// step program. `busy` guards against two concurrent instances of the
/// same shape sharing one executor (one executor's graph runs one
/// submission at a time); a second in-flight instance gets its own entry.
struct SolveService::ExecEntry {
  solvers::Scheme scheme = solvers::Scheme::RK4;
  int boxSize = 0;
  int nBoxes = 0;
  int steps = 0;
  grid::Real dt = 0;
  core::LevelPolicy policy = core::LevelPolicy::BoxParallel;
  int weight = 1;

  int domain = 0;
  std::unique_ptr<core::StepGraphExecutor> exec;
  core::StepProgram prog;
  /// S4 rebind signature (analysis::stepSignature): what the executor's
  /// graph cache was captured under; reuse re-derives and matches it.
  std::uint64_t signature = 0;
  bool busy = false;
};

namespace {

/// The (program, layout, physics) digest of one instance spec — the
/// service always solves periodic kNumComp/kNumGhost levels with the
/// default RHS physics, so the spec determines the whole key.
std::uint64_t entrySignature(const InstanceSpec& spec,
                             const core::StepProgram& prog) {
  const grid::DisjointBoxLayout layout = specLayout(spec);
  analysis::StepShapeKey key;
  key.domainBox = layout.domain().box();
  for (int d = 0; d < grid::SpaceDim; ++d) {
    key.periodic[static_cast<std::size_t>(d)] =
        layout.domain().isPeriodic(d);
  }
  key.boxSize = layout.boxSize();
  key.nGhost = kernels::kNumGhost;
  key.nComp = kernels::kNumComp;
  const core::StepRhsSpec rhs;
  key.invDx = rhs.invDx;
  key.dissipation = rhs.dissipation;
  key.hasBoundary = false;
  return analysis::stepSignature(prog, core::StepFuse::Fused, key);
}

} // namespace

SolveService::SolveService(ServiceOptions opts)
    : opts_(std::move(opts)), pool_(std::max(1, opts_.threads), opts_.pin) {}

SolveService::~SolveService() = default;

SolveService::ExecEntry& SolveService::acquireExecutor(
    const InstanceSpec& spec, core::LevelPolicy policy) {
  for (const std::unique_ptr<ExecEntry>& e : executors_) {
    if (!e->busy && e->scheme == spec.scheme &&
        e->boxSize == spec.boxSize && e->nBoxes == spec.nBoxes &&
        e->steps == spec.steps && e->dt == spec.dt &&
        e->policy == policy && e->weight == spec.weight) {
      // S4 rebind gate: the shape fields just matched, so the signature
      // of what this spec would capture must equal the one the entry's
      // graph cache was built (and step-verified) under — a mismatch
      // means the cache key admitted a spec the graphs were never proven
      // for.
      const std::uint64_t sig = entrySignature(
          spec, solvers::buildStepProgram(spec.scheme, spec.dt, spec.steps));
      if (sig != e->signature) {
        throw std::logic_error(
            "SolveService: executor-cache signature mismatch for '" +
            spec.name + "' (cached " +
            analysis::stepSignatureHex(e->signature) + ", requested " +
            analysis::stepSignatureHex(sig) + ")");
      }
      e->busy = true;
      return *e;
    }
  }
  auto entry = std::make_unique<ExecEntry>();
  entry->scheme = spec.scheme;
  entry->boxSize = spec.boxSize;
  entry->nBoxes = spec.nBoxes;
  entry->steps = spec.steps;
  entry->dt = spec.dt;
  entry->policy = policy;
  entry->weight = spec.weight;
  entry->domain = pool_.createDomain(spec.weight, spec.name);
  core::StepExecOptions execOpts;
  execOpts.policy = policy;
  execOpts.sharedPool = &pool_;
  execOpts.domain = entry->domain;
  entry->exec = std::make_unique<core::StepGraphExecutor>(
      opts_.cfg, pool_.nThreads(), execOpts);
  entry->prog = solvers::buildStepProgram(spec.scheme, spec.dt, spec.steps);
  entry->signature = entrySignature(spec, entry->prog);
  entry->busy = true;
  executors_.push_back(std::move(entry));
  return *executors_.back();
}


ServiceReport SolveService::run(const std::vector<InstanceSpec>& specs,
                                const std::vector<LevelData*>& states) {
  if (specs.size() != states.size()) {
    throw std::invalid_argument(
        "SolveService::run: specs/states size mismatch");
  }
  ServiceReport out;
  out.instances.resize(specs.size());
  if (specs.empty()) {
    return out;
  }

  const core::TaskPoolStats pool0 = pool_.stats();
  harness::Timer wall;
  std::vector<double> latencies;
  latencies.reserve(specs.size());

  /// Per-admitted-instance orchestration state: the cached executor
  /// entry, its in-flight ticket, and the bookkeeping the report needs.
  struct Active {
    std::size_t idx = 0;
    ExecEntry* entry = nullptr;
    core::StepRhsSpec rhsSpec;
    LevelData* u = nullptr;
    double t0 = 0;
    core::DomainStats dom0;
    std::uint64_t hits0 = 0;
    std::uint64_t rebinds0 = 0;
    tuner::TuneKey key;
    bool fromPrior = false;
    InstanceReport report;
    TaskPool::Ticket ticket = 0;
  };

  std::vector<Active> active;
  active.reserve(specs.size());
  std::size_t nextAdmit = 0;

  const auto admit = [&](std::size_t i) {
    const InstanceSpec& spec = specs[i];
    LevelData& u = *states[i];
    Active a;
    a.idx = i;
    a.u = &u;
    a.report.name = spec.name;
    a.report.scheme = spec.scheme;
    a.report.policy = spec.policy;

    // Admission-time tuning: measured record if the key is warm, else a
    // cost-model prior (counted as a re-tune; the solve's measurement is
    // folded back below).
    a.key = tuner::TuneKey{solvers::schemeName(spec.scheme), spec.boxSize,
                           u.nGhost(), pool_.nThreads()};
    if (opts_.tunedb != nullptr && spec.autoPolicy) {
      const tuner::TuneEntry& entry =
          opts_.tunedb->suggest(a.key, spec.nBoxes, opts_.cfg);
      a.report.policy = entry.policy;
      a.fromPrior = !entry.measured;
      a.report.tunedFromPrior = a.fromPrior;
      if (a.fromPrior) {
        ++out.retunes;
      }
    }

    a.entry = &acquireExecutor(spec, a.report.policy);
    a.dom0 = pool_.domainStats(a.entry->domain);
    a.hits0 = a.entry->exec->stats().cacheHits;
    a.rebinds0 = a.entry->exec->stats().rebinds;
    a.t0 = wall.seconds();
    a.entry->exec->preparePhases(a.entry->prog, u, a.rhsSpec);
    a.ticket =
        pool_.submit(a.entry->exec->beginPhase(0), a.entry->domain);
    active.push_back(std::move(a));
  };

  const auto finalize = [&](Active& a) {
    const InstanceSpec& spec = specs[a.idx];
    a.report.latencySeconds = wall.seconds() - a.t0;
    a.report.stepSeconds = a.report.latencySeconds / spec.steps;
    a.report.cacheHits = a.entry->exec->stats().cacheHits - a.hits0;
    a.report.rebinds = a.entry->exec->stats().rebinds - a.rebinds0;
    const core::DomainStats d1 = pool_.domainStats(a.entry->domain);
    a.report.domain.executed = d1.executed - a.dom0.executed;
    a.report.domain.stolen = d1.stolen - a.dom0.stolen;
    latencies.push_back(a.report.latencySeconds);
    if (opts_.tunedb != nullptr && a.fromPrior) {
      opts_.tunedb->observe(a.key, core::StepFuse::Fused, a.report.policy,
                            a.report.stepSeconds);
    }
    a.entry->busy = false;
    out.instances[a.idx] = std::move(a.report);
  };

  // Auto window: one instance per unit of real parallelism plus one so
  // the next admission's tune lookup and graph rebind (orchestrator
  // work) overlap the dedicated workers' execution. Pool threads beyond
  // the physical cores add no concurrency, only live working sets, so
  // the window tracks min(threads, cores). With a single pool thread
  // the orchestrator IS the only worker — nothing overlaps, and a wider
  // window would just interleave working sets — so the window is 1.
  const unsigned hw = std::thread::hardware_concurrency();
  const int realThreads =
      hw > 0 ? std::min(opts_.threads, static_cast<int>(hw))
             : opts_.threads;
  const std::size_t autoWindow =
      opts_.threads == 1 ? 1
                         : static_cast<std::size_t>(realThreads) + 1;
  const std::size_t window =
      opts_.maxConcurrent > 0
          ? static_cast<std::size_t>(opts_.maxConcurrent)
          : (opts_.maxConcurrent == 0 ? autoWindow : specs.size());
  std::vector<TaskPool::Ticket> tickets;
  while (!active.empty() || nextAdmit < specs.size()) {
    while (nextAdmit < specs.size() && active.size() < window) {
      admit(nextAdmit++);
    }
    tickets.clear();
    for (const Active& a : active) {
      tickets.push_back(a.ticket);
    }
    const std::size_t k = pool_.waitAny(tickets);
    Active& a = active[k];
    a.entry->exec->endPhase(0);
    finalize(a);
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(k));
  }

  out.solves = specs.size();
  out.wallSeconds = wall.seconds();
  out.solvesPerSec =
      out.wallSeconds > 0
          ? static_cast<double>(specs.size()) / out.wallSeconds
          : 0.0;
  out.latency = harness::latencySummary(std::move(latencies));
  const core::TaskPoolStats pool1 = pool_.stats();
  out.tasksExecuted = pool1.executed - pool0.executed;
  out.tasksStolen = pool1.stolen - pool0.stolen;
  out.domainCrossings = pool1.domainCrossings - pool0.domainCrossings;
  out.idleSleeps = pool1.idleSleeps - pool0.idleSleeps;
  out.submissions = pool1.submissions - pool0.submissions;
  out.poolUtilization =
      out.wallSeconds > 0
          ? (pool1.busySeconds - pool0.busySeconds) /
                (static_cast<double>(pool_.nThreads()) * out.wallSeconds)
          : 0.0;
  for (const InstanceReport& r : out.instances) {
    out.graphCacheHits += r.cacheHits;
  }
  return out;
}

ServiceReport SolveService::run(const std::vector<InstanceSpec>& specs) {
  std::vector<std::unique_ptr<LevelData>> owned;
  std::vector<LevelData*> states;
  owned.reserve(specs.size());
  for (const InstanceSpec& spec : specs) {
    owned.push_back(std::make_unique<LevelData>(
        specLayout(spec), kernels::kNumComp, kernels::kNumGhost));
    kernels::initializeExemplar(*owned.back());
    states.push_back(owned.back().get());
  }
  return run(specs, states);
}

void printServiceReport(std::ostream& os, const ServiceReport& report) {
  os << "service: " << report.solves << " solves in "
     << std::fixed << std::setprecision(3) << report.wallSeconds << " s ("
     << std::setprecision(2) << report.solvesPerSec << " solves/s), "
     << "latency p50/p90/p99 = " << std::setprecision(4)
     << report.latency.p50 * 1e3 << "/" << report.latency.p90 * 1e3 << "/"
     << report.latency.p99 * 1e3 << " ms\n"
     << "pool: utilization " << std::setprecision(1)
     << report.poolUtilization * 100.0 << "%, " << report.tasksExecuted
     << " tasks (" << report.tasksStolen << " stolen, "
     << report.domainCrossings << " domain crossings, "
     << report.idleSleeps << " idle sleeps), " << report.submissions
     << " graph submissions, " << report.graphCacheHits
     << " graph-cache hits, " << report.retunes << " re-tunes\n";
  os.unsetf(std::ios::floatfield);
  for (const InstanceReport& r : report.instances) {
    os << "  " << r.name << ": " << solvers::schemeName(r.scheme) << " "
       << core::levelPolicyName(r.policy)
       << (r.tunedFromPrior ? " (prior)" : " (db)") << ", "
       << std::setprecision(4) << r.latencySeconds * 1e3 << " ms, "
       << r.domain.executed << " tasks (" << r.domain.stolen
       << " stolen), " << r.cacheHits << " cache hits\n";
  }
}

} // namespace fluxdiv::serve
