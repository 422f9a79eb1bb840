#include "core/kernelshapes.hpp"

#include <memory>
#include <utility>

#include "core/runner.hpp"
#include "kernels/exemplar.hpp"

namespace fluxdiv::core {

analysis::KernelShape makeVariantShape(const VariantConfig& cfg,
                                       int nThreads) {
  analysis::KernelShape shape;
  shape.name = "variant:" + cfg.name();
  shape.stage = kernels::Stage::FusedCell;
  shape.dir = -1;
  shape.inComps = kernels::kNumComp;
  shape.outComps = kernels::kNumComp;
  shape.outputDep = analysis::OutputDep::Accumulate;
  // One runner shared across copies of the callable: its workspace pool
  // and verified-shape cache persist across the prober's many runs.
  auto runner = std::make_shared<FluxDivRunner>(cfg, nThreads);
  shape.fn = [runner](const grid::FArrayBox& in, grid::FArrayBox& out,
                      const grid::Box& valid, grid::Real scale) {
    runner->runBox(in, out, valid, scale);
  };
  return shape;
}

std::vector<VariantConfig> representativeFamilies(int tile) {
  return {
      makeBaseline(ParallelGranularity::WithinBox),
      makeShiftFuse(ParallelGranularity::WithinBox),
      makeBlockedWF(tile, ParallelGranularity::WithinBox,
                    ComponentLoop::Outside),
      makeBlockedWF(tile, ParallelGranularity::WithinBox,
                    ComponentLoop::Inside),
      makeOverlapped(IntraTileSchedule::ShiftFuse, tile,
                     ParallelGranularity::WithinBox),
  };
}

std::vector<analysis::KernelShape> variantShapes(int nThreads, int tile) {
  std::vector<analysis::KernelShape> shapes;
  const std::vector<VariantConfig> cfgs = representativeFamilies(tile);
  shapes.reserve(cfgs.size());
  for (const VariantConfig& cfg : cfgs) {
    shapes.push_back(makeVariantShape(cfg, nThreads));
  }
  return shapes;
}

} // namespace fluxdiv::core
