#pragma once
// lowerVariant: build the explicit ScheduleModel of one VariantConfig over
// one box — which stages run, over which regions, under which concurrency
// structure. The lowering mirrors the executors in src/core stage by stage
// and barrier by barrier; ScheduleVerifier then proves the model legal.
// Keeping the lowering separate from the executors is what lets the tests
// mutate a model into a deliberately-broken schedule (mutate.hpp) and
// prove the verifier rejects it.

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
