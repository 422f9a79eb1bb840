#pragma once
// The schedule advisor: ranks the variant registry for a target machine by
// predicted memory traffic (costmodel.hpp) and recommends blocked-wavefront
// tile sizes, entirely statically — the tool-facing layer of the cost
// model. `tools/fluxdiv_advisor` prints its output.

#include <string>
#include <vector>

#include "analysis/costmodel.hpp"
#include "core/variant.hpp"

namespace fluxdiv::analysis {

/// One ranked registry entry.
struct RankedVariant {
  core::VariantConfig cfg;
  CostReport cost;
};

/// A blocked-wavefront tile-size recommendation.
struct TileAdvice {
  core::VariantConfig cfg;
  CostReport cost;
  std::string rationale;
};

class ScheduleAdvisor {
public:
  explicit ScheduleAdvisor(CacheSpec spec) : spec_(spec) {}

  [[nodiscard]] const CacheSpec& spec() const { return spec_; }

  /// Analyze one variant for an N^3 box and `nThreads` workers.
  [[nodiscard]] CostReport analyze(const core::VariantConfig& cfg,
                                   int boxSize, int nThreads) const;

  /// Rank the registry (optionally with the beyond-paper extension axes)
  /// by ascending predicted traffic; ties break toward less recompute,
  /// then more available concurrency, then the display name.
  [[nodiscard]] std::vector<RankedVariant>
  rank(int boxSize, int nThreads, bool includeExtensions = false) const;

  /// Pick the blocked-wavefront configuration (tile size x component
  /// loop) minimizing predicted traffic subject to the per-tile footprint
  /// fitting the LLC — preferring tiles that also fit L2. Falls back to
  /// the smallest footprint if nothing fits.
  [[nodiscard]] TileAdvice recommendBlockedTile(int boxSize,
                                                int nThreads) const;

private:
  CacheSpec spec_;
};

} // namespace fluxdiv::analysis
