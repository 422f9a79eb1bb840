#include "solvers/integrator.hpp"

#include <string>
#include <vector>

#include "kernels/exemplar.hpp"

namespace fluxdiv::solvers {

using grid::DisjointBoxLayout;
using grid::LevelData;
using grid::Real;

void copyValid(const LevelData& src, LevelData& dst) {
  for (std::size_t b = 0; b < src.size(); ++b) {
    dst[b].copy(src[b], src.validBox(b), 0, 0, src.nComp());
  }
}

void addScaled(LevelData& dst, const LevelData& src, Real scale) {
  for (std::size_t b = 0; b < dst.size(); ++b) {
    dst[b].plus(src[b], scale, dst.validBox(b));
  }
}

void scaleValid(LevelData& dst, Real scale) {
  for (std::size_t b = 0; b < dst.size(); ++b) {
    dst[b].mult(scale, dst.validBox(b));
  }
}

const char* schemeName(Scheme s) {
  switch (s) {
  case Scheme::ForwardEuler:
    return "euler";
  case Scheme::Midpoint:
    return "midpoint";
  case Scheme::SSPRK3:
    return "ssprk3";
  case Scheme::RK4:
    return "rk4";
  }
  return "?";
}

bool parseScheme(const std::string& text, Scheme& out) {
  for (const Scheme s : kSchemes) {
    if (text == schemeName(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

core::StepProgram buildStepProgram(Scheme scheme, Real dt, int nSteps,
                                   bool withBoundary) {
  core::StepProgram prog;
  prog.rhsEvals = schemeRhsEvals(scheme);
  prog.nSteps = nSteps < 1 ? 1 : nSteps;
  switch (scheme) {
  case Scheme::ForwardEuler:
    prog.slotNames = {"u", "k"};
    break;
  case Scheme::Midpoint:
    prog.slotNames = {"u", "k", "mid"};
    break;
  case Scheme::SSPRK3:
    prog.slotNames = {"u", "k", "s1", "s2"};
    break;
  case Scheme::RK4:
    prog.slotNames = {"u", "k", "acc", "stage", "stage2"};
    break;
  }
  prog.nSlots = static_cast<int>(prog.slotNames.size());

  for (int t = 0; t < prog.nSteps; ++t) {
    // Ghost exchange (+ BC fill) and RHS evaluation of one stage state —
    // exactly what FluxDivRhs::operator() does eagerly.
    const auto rhsOf = [&](int src, int dst) {
      prog.exchange(src, t);
      if (withBoundary) {
        prog.boundaryFill(src, t);
      }
      prog.rhs(src, dst, t);
    };
    // Slot ids per scheme (0 is always u, 1 always the k scratch). This is
    // the only statement of each scheme's stage combines and coefficients:
    // advanceEager() interprets the program op by op, and any lowering
    // that preserves per-(slot, region) program order reproduces that
    // interpretation's FP rounding exactly.
    //
    // No combine writes the source slot of the RHS it follows. The
    // step-graph lowering runs the combines after an RHS inside that
    // RHS's tile tasks, and a neighbouring tile still reads the source
    // through its halo, so writing it there would race. Hence RK4
    // alternates two stage slots and SSPRK3 builds u2 in s2 (a copy of
    // u1, then the in-place updates). Each cell sees the same operation
    // sequence as with one stage slot, so u is unchanged bit for bit.
    // Euler's u += dt k writes its own RHS source and stays a separate
    // combine.
    switch (scheme) {
    case Scheme::ForwardEuler:
      rhsOf(0, 1);
      prog.axpy(0, 1, dt, t);
      break;
    case Scheme::Midpoint:
      rhsOf(0, 1);           // k1 = f(u)
      prog.copy(0, 2, t);    // mid = u
      prog.axpy(2, 1, 0.5 * dt, t);
      rhsOf(2, 1);           // k2 = f(mid)
      prog.axpy(0, 1, dt, t);
      break;
    case Scheme::SSPRK3:
      rhsOf(0, 1);
      prog.copy(0, 2, t);
      prog.axpy(2, 1, dt, t); // u1
      rhsOf(2, 1);
      prog.copy(2, 3, t);
      prog.scale(3, 0.25, t);
      prog.axpy(3, 0, 0.75, t);
      prog.axpy(3, 1, 0.25 * dt, t); // u2
      rhsOf(3, 1);
      prog.scale(0, 1.0 / 3.0, t);
      prog.axpy(0, 3, 2.0 / 3.0, t);
      prog.axpy(0, 1, 2.0 / 3.0 * dt, t);
      break;
    case Scheme::RK4:
      rhsOf(0, 1); // k1
      prog.copy(1, 2, t);
      prog.copy(0, 3, t);
      prog.axpy(3, 1, 0.5 * dt, t);
      rhsOf(3, 1); // k2
      prog.axpy(2, 1, 2.0, t);
      prog.copy(0, 4, t);
      prog.axpy(4, 1, 0.5 * dt, t);
      rhsOf(4, 1); // k3
      prog.axpy(2, 1, 2.0, t);
      prog.copy(0, 3, t);
      prog.axpy(3, 1, dt, t);
      rhsOf(3, 1); // k4
      prog.axpy(2, 1, 1.0, t);
      prog.axpy(0, 2, dt / 6.0, t);
      break;
    }
  }
  return prog;
}

TimeIntegrator::TimeIntegrator(Scheme scheme,
                               const DisjointBoxLayout& layout)
    : scheme_(scheme), layout_(layout) {}

TimeIntegrator::~TimeIntegrator() = default;

const core::StepGraphStats* TimeIntegrator::stepStats() const {
  return exec_ != nullptr ? &exec_->stats() : nullptr;
}

core::StepGraphExecutor*
TimeIntegrator::stepExecutor(const FluxDivRhs& rhs) {
  core::StepExecOptions opts;
  opts.policy = policy_;
  opts.replay = replay_;
  const bool reusable =
      exec_ != nullptr && execCfg_ == rhs.config() &&
      exec_->nThreads() == rhs.nThreads() &&
      exec_->options().policy == opts.policy &&
      exec_->options().replay.order == opts.replay.order &&
      exec_->options().replay.seed == opts.replay.seed;
  if (!reusable) {
    exec_ = std::make_unique<core::StepGraphExecutor>(rhs.config(),
                                                      rhs.nThreads(), opts);
    execCfg_ = rhs.config();
  }
  return exec_.get();
}

void TimeIntegrator::advance(LevelData& u, Real dt, FluxDivRhs& rhs) {
  advanceSteps(u, dt, rhs, 1);
}

void TimeIntegrator::advanceSteps(LevelData& u, Real dt, FluxDivRhs& rhs,
                                  int nSteps) {
  const core::StepProgram prog = buildStepProgram(
      scheme_, dt, nSteps, rhs.boundary() != nullptr);
  core::StepRhsSpec spec;
  spec.invDx = rhs.invDx();
  spec.dissipation = rhs.dissipation();
  spec.boundary = rhs.boundary();
  stepExecutor(rhs)->run(prog, u, spec);
}

void TimeIntegrator::advanceEager(LevelData& u, Real dt, FluxDivRhs& rhs) {
  // The serial, in-order interpretation of the step program: each op runs
  // to completion over the whole level before the next starts.
  const core::StepProgram prog =
      buildStepProgram(scheme_, dt, 1, rhs.boundary() != nullptr);
  // Slot 0 of the program is the caller's solution; the rest are stages,
  // which live for this call only.
  std::vector<LevelData> stages;
  stages.reserve(static_cast<std::size_t>(prog.nSlots - 1));
  for (int s = 1; s < prog.nSlots; ++s) {
    stages.emplace_back(layout_, kernels::kNumComp,
                        core::slotGhosts(prog, s));
  }
  const auto slot = [&](int s) -> LevelData& {
    return s == 0 ? u : stages[static_cast<std::size_t>(s - 1)];
  };
  for (const core::StepOp& op : prog.ops) {
    LevelData& dst = slot(op.dst);
    switch (op.kind) {
    case core::StepOpKind::Exchange:
      dst.exchange();
      break;
    case core::StepOpKind::BoundaryFill:
      rhs.boundary()->fill(dst);
      break;
    case core::StepOpKind::RhsEval:
      rhs.evaluate(slot(op.src), dst);
      break;
    case core::StepOpKind::CopySlot:
      copyValid(slot(op.src), dst);
      break;
    case core::StepOpKind::AxpySlot:
      addScaled(dst, slot(op.src), op.scale);
      break;
    case core::StepOpKind::ScaleSlot:
      scaleValid(dst, op.scale);
      break;
    }
  }
}

} // namespace fluxdiv::solvers
