#pragma once
// Kernel shapes of the variant executors, for the footprint contract
// checker (analysis/kernelcheck.hpp). The analysis library deliberately
// does not link the executors (it sits below fluxdiv_core), so the shapes
// that wrap FluxDivRunner::runBox live here: each one presents a whole
// variant's single-box evaluation — baseline temporaries, shift-fuse
// sweeps, blocked wavefronts, overlapped tiles — as one FusedCell
// pipeline over <rho, u, v, w, e> whose inferred footprint must match the
// declared contract exactly like the reference kernel's does.

#include <vector>

#include "analysis/kernelcheck.hpp"
#include "core/variant.hpp"

namespace fluxdiv::core {

/// Wrap one variant's single-box execution as a probeable kernel shape.
/// The returned shape owns a FluxDivRunner (shared across copies of the
/// callable); probing it executes the real executor code path.
analysis::KernelShape makeVariantShape(const VariantConfig& cfg,
                                       int nThreads);

/// The four schedule families at one representative configuration each:
/// baseline, shift-fuse, blocked wavefront with both component loops,
/// and shift-fuse overlapped tiles, all within-box; `tile` sizes the
/// tiled ones.
std::vector<VariantConfig> representativeFamilies(int tile);

/// The representative families as pipeline shapes. `tile` must not
/// exceed the probe box size.
std::vector<analysis::KernelShape> variantShapes(int nThreads,
                                                 int tile = 4);

} // namespace fluxdiv::core
