// Storage-pitch independence of the executors: running any schedule
// family on Pitch::Padded fabs (the default aligned, padded allocation)
// must produce results bit-identical to the same schedule on Pitch::Dense
// fabs. The pad lanes change only where rows live in memory, never which
// cells a kernel reads or the order it combines them, so the comparison
// is exact equality — not a tolerance.

#include <gtest/gtest.h>

#include "core/exec_common.hpp"
#include "core/runner.hpp"
#include "kernels/init.hpp"

namespace fluxdiv::core::detail {
namespace {

using grid::Pitch;

constexpr Real kScale = -0.125;

/// Run one serial per-box executor on fabs of the given pitch.
template <typename Exec>
FArrayBox runWithPitch(Exec&& exec, const VariantConfig& cfg,
                       const Box& valid, Pitch pitch) {
  FArrayBox phi0(valid.grow(kernels::kNumGhost), kernels::kNumComp, pitch);
  FArrayBox phi1(valid, kernels::kNumComp, pitch);
  kernels::initializeExemplar(phi0, valid);
  phi1.setVal(0.0);
  Workspace ws;
  exec(cfg, phi0, phi1, valid, ws, kScale);
  return phi1;
}

void expectBitIdentical(const FArrayBox& padded, const FArrayBox& dense,
                        const Box& valid, const std::string& what) {
  ASSERT_EQ(padded.pitch() % grid::kSimdDoubles, 0) << what;
  for (int c = 0; c < kernels::kNumComp; ++c) {
    forEachCell(valid, [&](int i, int j, int k) {
      ASSERT_EQ(padded(i, j, k, c), dense(i, j, k, c))
          << what << " comp " << c << " at " << i << ',' << j << ',' << k;
    });
  }
}

struct NamedExec {
  const char* label;
  VariantConfig cfg;
  void (*exec)(const VariantConfig&, const FArrayBox&, FArrayBox&,
               const Box&, Workspace&, Real);
};

std::vector<NamedExec> serialExecutors() {
  const auto clo = ComponentLoop::Outside;
  const auto cli = ComponentLoop::Inside;
  const auto serial = ParallelGranularity::OverBoxes;
  return {
      {"baseline-CLO", makeBaseline(serial, clo), &baselineBoxSerial},
      {"baseline-CLI", makeBaseline(serial, cli), &baselineBoxSerial},
      {"shiftfuse-CLO", makeShiftFuse(serial, clo), &shiftFuseBoxSerial},
      {"shiftfuse-CLI", makeShiftFuse(serial, cli), &shiftFuseBoxSerial},
      {"blockedwf-CLO-4", makeBlockedWF(4, serial, clo),
       &blockedWFBoxSerial},
      {"blockedwf-CLI-4", makeBlockedWF(4, serial, cli),
       &blockedWFBoxSerial},
      {"overlapped-basic-4",
       makeOverlapped(IntraTileSchedule::Basic, 4, serial, clo),
       &overlappedBoxSerial},
      {"overlapped-fused-4",
       makeOverlapped(IntraTileSchedule::ShiftFuse, 4, serial, clo),
       &overlappedBoxSerial},
  };
}

TEST(PaddedStorage, SerialExecutorsAreBitIdenticalAcrossPitches) {
  // A box whose x-extent is NOT a multiple of the SIMD width, so the
  // padded pitch actually differs from the dense one, with a nonzero
  // origin to exercise the lo-offset arithmetic.
  const Box valid = Box::cube(13, grid::IntVect(-3, 5, 2));
  ASSERT_NE(grid::paddedPitch(valid.grow(kernels::kNumGhost).size(0)),
            valid.grow(kernels::kNumGhost).size(0));
  for (const NamedExec& e : serialExecutors()) {
    SCOPED_TRACE(e.label);
    const FArrayBox padded =
        runWithPitch(e.exec, e.cfg, valid, Pitch::Padded);
    const FArrayBox dense = runWithPitch(e.exec, e.cfg, valid, Pitch::Dense);
    expectBitIdentical(padded, dense, valid, e.label);
  }
}

TEST(PaddedStorage, ParallelExecutorsAreBitIdenticalAcrossPitches) {
  // The within-box task schedules, through the runner's graphs.
  const Box valid = Box::cube(13, grid::IntVect(1, -2, 4));
  const int nThreads = 3;
  const auto par = ParallelGranularity::WithinBox;
  const struct {
    const char* label;
    VariantConfig cfg;
  } execs[] = {
      {"baseline-par", makeBaseline(par, ComponentLoop::Outside)},
      {"shiftfuse-wf-CLO", makeShiftFuse(par, ComponentLoop::Outside)},
      {"shiftfuse-wf-CLI", makeShiftFuse(par, ComponentLoop::Inside)},
      {"blockedwf-par-4", makeBlockedWF(4, par, ComponentLoop::Outside)},
      {"overlapped-par-4",
       makeOverlapped(IntraTileSchedule::ShiftFuse, 4, par)},
  };
  for (const auto& e : execs) {
    SCOPED_TRACE(e.label);
    FArrayBox results[2];
    const Pitch pitches[] = {Pitch::Padded, Pitch::Dense};
    for (int p = 0; p < 2; ++p) {
      FArrayBox phi0(valid.grow(kernels::kNumGhost), kernels::kNumComp,
                     pitches[p]);
      FArrayBox phi1(valid, kernels::kNumComp, pitches[p]);
      kernels::initializeExemplar(phi0, valid);
      phi1.setVal(0.0);
      FluxDivRunner(e.cfg, nThreads).runBox(phi0, phi1, valid, kScale);
      results[p] = std::move(phi1);
    }
    expectBitIdentical(results[0], results[1], valid, e.label);
  }
}

} // namespace
} // namespace fluxdiv::core::detail
