#pragma once
// lowerVariant: build the explicit ScheduleModel of one VariantConfig over
// one box — which stages run, over which regions, under which concurrency
// structure. The lowering follows the executors in src/core stage by stage
// and barrier by barrier; it is the static cost model's input
// (costmodel.hpp), not a proof of the executors, which are checked by
// running them (docs/static-analysis.md).

#include "analysis/model.hpp"
#include "core/variant.hpp"

namespace fluxdiv::analysis {

/// Lower `cfg` computing `valid` with `nThreads` workers. Throws
/// std::invalid_argument for configurations the runner would reject
/// (tiled families without a tile size, hybrid granularity outside the
/// overlapped family).
ScheduleModel lowerVariant(const core::VariantConfig& cfg,
                           const grid::Box& valid, int nThreads);

} // namespace fluxdiv::analysis
