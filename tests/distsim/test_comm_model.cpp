#include "distsim/comm_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "level_matrix.hpp"

namespace fluxdiv::distsim {
namespace {

using grid::Box;
using grid::Copier;
using grid::DisjointBoxLayout;
using grid::ProblemDomain;

struct Case {
  DisjointBoxLayout dbl;
  Copier copier;
  Case(int dom, int box, int nghost = 2)
      : dbl(ProblemDomain(Box::cube(dom)), box), copier(dbl, nghost) {}
};

/// One (plan, partition) an accounting identity is checked on.
struct Input {
  std::string name;
  Copier copier;
  RankDecomposition ranks;
};

/// 64^3 in 16^3 boxes at each of `rankCounts`, then every layout of the
/// shared level matrix at ranks {1,2,4,8}.
std::vector<Input> identityInputs(std::initializer_list<int> rankCounts) {
  std::vector<Input> out;
  const Case c(64, 16);
  for (const int n : rankCounts) {
    out.push_back({"64@16 at " + std::to_string(n) + " ranks", c.copier,
                   RankDecomposition(c.dbl, n)});
  }
  for (const test::NamedLayout& nl : test::levelMatrix()) {
    const Copier copier(nl.dbl, nl.nghost);
    for (const int n : {1, 2, 4, 8}) {
      out.push_back({nl.name + " at " + std::to_string(n) + " ranks",
                     copier, RankDecomposition(nl.dbl, n)});
    }
  }
  return out;
}

TEST(CommModel, SingleRankIsAllLocal) {
  Case c(64, 16);
  RankDecomposition ranks(c.dbl, 1);
  const ExchangeCost cost = analyzeExchange(ranks, c.copier, 5);
  EXPECT_EQ(cost.offRankCells, 0);
  EXPECT_EQ(cost.messagesTotal, 0);
  EXPECT_EQ(cost.bytesTotal, 0u);
  EXPECT_EQ(cost.predictedSeconds, 0.0);
  EXPECT_EQ(cost.onRankCells, c.copier.ghostCellCount());
}

TEST(CommModel, CellsPartitionIntoLocalAndRemote) {
  for (const Input& in : identityInputs({2, 4, 8, 64})) {
    const ExchangeCost cost = analyzeExchange(in.ranks, in.copier, 5);
    EXPECT_EQ(cost.onRankCells + cost.offRankCells,
              in.copier.ghostCellCount())
        << in.name;
  }
}

TEST(CommModel, OneRankPerBoxMakesEverythingRemote) {
  Case c(64, 16); // 64 boxes
  RankDecomposition ranks(c.dbl, 64);
  const ExchangeCost cost = analyzeExchange(ranks, c.copier, 5);
  EXPECT_EQ(cost.onRankCells, 0);
  EXPECT_EQ(cost.offRankCells, c.copier.ghostCellCount());
  // Every box has 26 neighbors, all remote.
  EXPECT_EQ(cost.messagesTotal, 64 * 26);
  EXPECT_EQ(cost.maxMessagesPerRank, 26);
}

TEST(CommModel, BytesMatchCellCounts) {
  Case c(32, 16);
  RankDecomposition ranks(c.dbl, 8);
  const int ncomp = 5;
  const ExchangeCost cost = analyzeExchange(ranks, c.copier, ncomp);
  EXPECT_EQ(cost.bytesTotal,
            static_cast<std::uint64_t>(cost.offRankCells) * ncomp *
                sizeof(grid::Real));
}

TEST(CommModel, MoreRanksNeverReduceTraffic) {
  Case c(64, 8);
  std::uint64_t prev = 0;
  for (int nRanks : {1, 2, 4, 8}) {
    RankDecomposition ranks(c.dbl, nRanks);
    const ExchangeCost cost = analyzeExchange(ranks, c.copier, 5);
    EXPECT_GE(cost.bytesTotal, prev) << nRanks;
    prev = cost.bytesTotal;
  }
}

TEST(CommModel, SmallerBoxesCostMoreAtFixedRankCount) {
  // The paper's motivation at simulated scale: same domain, same ranks,
  // smaller boxes -> more ghost volume and more messages.
  const int nRanks = 8;
  ExchangeCost prev;
  bool first = true;
  for (int box : {32, 16, 8}) {
    Case c(64, box);
    RankDecomposition ranks(c.dbl, nRanks);
    const ExchangeCost cost = analyzeExchange(ranks, c.copier, 5);
    if (!first) {
      EXPECT_GT(cost.bytesTotal, prev.bytesTotal) << "box " << box;
      EXPECT_GT(cost.messagesTotal, prev.messagesTotal) << "box " << box;
      EXPECT_GT(cost.predictedSeconds, prev.predictedSeconds);
    }
    prev = cost;
    first = false;
  }
}

TEST(CommModel, AlphaBetaPrediction) {
  Case c(32, 16);
  RankDecomposition ranks(c.dbl, 8); // one box per rank
  NetworkParams net;
  net.latencySeconds = 1.0;   // exaggerate to make terms checkable
  net.bytesPerSecond = 1.0e9;
  const ExchangeCost cost = analyzeExchange(ranks, c.copier, 1, net);
  // Busiest rank: messages*1s + bytes/1e9.
  const double expected = double(cost.maxMessagesPerRank) * 1.0 +
                          double(cost.maxBytesPerRank) / 1.0e9;
  EXPECT_DOUBLE_EQ(cost.predictedSeconds, expected);
}

TEST(CommModel, OffRankFraction) {
  Case c(64, 16);
  RankDecomposition one(c.dbl, 1);
  EXPECT_EQ(analyzeExchange(one, c.copier, 5).offRankFraction(), 0.0);
  RankDecomposition all(c.dbl, 64);
  EXPECT_EQ(analyzeExchange(all, c.copier, 5).offRankFraction(), 1.0);
}

TEST(CommModel, RankPairTrafficSumsToTotals) {
  for (const Input& in : identityInputs({1, 2, 4, 8, 64})) {
    SCOPED_TRACE(in.name);
    const int nRanks = in.ranks.nRanks();
    const ExchangeCost cost = analyzeExchange(in.ranks, in.copier, 5);
    std::int64_t msgs = 0;
    std::uint64_t bytes = 0;
    int prevSrc = -1;
    int prevDst = -1;
    for (const RankPairCost& p : cost.pairs) {
      EXPECT_NE(p.srcRank, p.dstRank); // cross-rank pairs only
      EXPECT_GE(p.srcRank, 0);
      EXPECT_LT(p.srcRank, nRanks);
      EXPECT_GE(p.dstRank, 0);
      EXPECT_LT(p.dstRank, nRanks);
      // Sorted by (srcRank, dstRank), no duplicates.
      EXPECT_TRUE(p.srcRank > prevSrc ||
                  (p.srcRank == prevSrc && p.dstRank > prevDst));
      prevSrc = p.srcRank;
      prevDst = p.dstRank;
      EXPECT_GT(p.messages, 0);
      EXPECT_GT(p.bytes, 0u);
      msgs += p.messages;
      bytes += p.bytes;
    }
    EXPECT_EQ(msgs, cost.messagesTotal);
    EXPECT_EQ(bytes, cost.bytesTotal);
    if (nRanks == 1) {
      EXPECT_TRUE(cost.pairs.empty());
    }
  }
}

TEST(CommModel, OneBoxPerRankPairTraffic) {
  // 2^3 boxes on 8 ranks: each ordered rank pair is one box pair, and
  // the periodic wrap makes every pair exchange through multiple sectors
  // (face + edge + corner images of the same neighbor).
  Case c(16, 8);
  RankDecomposition ranks(c.dbl, 8);
  const ExchangeCost cost = analyzeExchange(ranks, c.copier, 1);
  EXPECT_EQ(cost.pairs.size(), 8u * 7u); // all-to-all at this box count
  for (const RankPairCost& p : cost.pairs) {
    EXPECT_GT(p.messages, 1) << p.srcRank << "->" << p.dstRank;
  }
}

} // namespace
} // namespace fluxdiv::distsim
