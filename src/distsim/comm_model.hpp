#pragma once
// Alpha-beta communication-cost analysis of a ghost exchange under a
// simulated rank decomposition: how many messages and bytes cross rank
// boundaries per exchange, and the classic latency+bandwidth time
// prediction for the busiest rank. This reproduces, at simulated scale,
// the inter-node side of the paper's motivation: small boxes multiply
// both message count and ghost volume.

#include <cstdint>
#include <vector>

#include "distsim/rank_layout.hpp"
#include "grid/copier.hpp"

namespace fluxdiv::distsim {

/// Interconnect parameters for the alpha-beta model. Defaults are typical
/// of the Gemini/QDR-InfiniBand era of the paper's machines.
struct NetworkParams {
  double latencySeconds = 1.5e-6;          ///< per message (alpha)
  double bytesPerSecond = 5.0e9;           ///< per rank link (1/beta)
};

/// Traffic one ordered rank pair exchanges: the alpha-beta inputs at
/// their native granularity.
struct RankPairCost {
  int srcRank = 0;
  int dstRank = 0;
  std::int64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Cost breakdown of one ghost exchange.
struct ExchangeCost {
  std::int64_t onRankCells = 0;   ///< ghost cells filled by local copy
  std::int64_t offRankCells = 0;  ///< ghost cells needing a message
  std::int64_t messagesTotal = 0; ///< one per cross-rank copy op
  std::int64_t maxMessagesPerRank = 0; ///< busiest receiver
  std::uint64_t bytesTotal = 0;        ///< off-rank bytes (all ranks)
  std::uint64_t maxBytesPerRank = 0;   ///< busiest receiver's bytes
  double predictedSeconds = 0.0; ///< alpha-beta time of the busiest rank
  /// Per ordered rank pair with traffic, sorted by (srcRank, dstRank).
  std::vector<RankPairCost> pairs;

  /// Fraction of all ghost cells that cross rank boundaries.
  [[nodiscard]] double offRankFraction() const {
    const double total = double(onRankCells) + double(offRankCells);
    return total == 0.0 ? 0.0 : double(offRankCells) / total;
  }
};

/// Analyze `copier`'s plan under `ranks` for `ncomp` components of Real
/// data. Each CopyOp whose source and destination boxes live on different
/// ranks counts as one message to the destination rank (the framework
/// aggregates per-box-pair regions into single sends, which the Copier's
/// op granularity models: up to 26 neighbors per box).
ExchangeCost analyzeExchange(const RankDecomposition& ranks,
                             const grid::Copier& copier, int ncomp,
                             const NetworkParams& net = {});

} // namespace fluxdiv::distsim
