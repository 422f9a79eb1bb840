#include "grid/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace fluxdiv::grid {
namespace {

class CheckpointTest : public testing::Test {
protected:
  // One file per test: ctest runs every case as its own process, so a
  // shared name would let one case's TearDown delete another's file.
  std::string path_ =
      testing::TempDir() + "fluxdiv_ckpt_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".ckpt";
  void TearDown() override { std::remove(path_.c_str()); }
};

LevelData makeLevel() {
  ProblemDomain dom(Box::cube(16), std::array<bool, 3>{true, false, true});
  DisjointBoxLayout dbl(dom, 8);
  LevelData ld(dbl, 3, 2);
  for (std::size_t b = 0; b < ld.size(); ++b) {
    FArrayBox& fab = ld[b];
    for (int c = 0; c < 3; ++c) {
      Real* p = fab.dataPtr(c);
      forEachCell(fab.box(), [&](int i, int j, int k) {
        p[fab.offset(i, j, k)] =
            0.1 * i + 7.0 * j - 0.03 * k + 100.0 * c + double(b);
      });
    }
  }
  return ld;
}

TEST_F(CheckpointTest, RoundTripIsBitExact) {
  LevelData original = makeLevel();
  writeCheckpoint(path_, original);
  LevelData restored = readCheckpoint(path_);

  ASSERT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.nComp(), 3);
  EXPECT_EQ(restored.nGhost(), 2);
  EXPECT_EQ(restored.layout().domain().box(), Box::cube(16));
  EXPECT_TRUE(restored.layout().domain().isPeriodic(0));
  EXPECT_FALSE(restored.layout().domain().isPeriodic(1));
  for (std::size_t b = 0; b < original.size(); ++b) {
    // Full fabs, ghosts included.
    EXPECT_EQ(FArrayBox::maxAbsDiff(original[b], restored[b],
                                    original[b].box()),
              0.0);
  }
}

TEST_F(CheckpointTest, PayloadStaysDenseDespitePaddedFabStorage) {
  // Fabs allocate with a padded x-pitch, but the checkpoint format is
  // pitch-independent: the writer emits logical rows only, so the file
  // holds exactly numPts * ncomp doubles per fab plus a bounded header —
  // none of the pad-lane slack.
  LevelData original = makeLevel();
  std::uintmax_t denseBytes = 0;
  std::uintmax_t slackBytes = 0;
  for (std::size_t b = 0; b < original.size(); ++b) {
    const FArrayBox& fab = original[b];
    denseBytes += static_cast<std::uintmax_t>(fab.box().numPts()) *
                  static_cast<std::uintmax_t>(fab.nComp()) * sizeof(Real);
    slackBytes += fab.bytes() - static_cast<std::uintmax_t>(
                                    fab.box().numPts()) *
                                    static_cast<std::uintmax_t>(fab.nComp()) *
                                    sizeof(Real);
  }
  ASSERT_GT(slackBytes, 0u) << "boxes happen to be pad-aligned; pick an "
                               "extent that is not a SIMD multiple";
  writeCheckpoint(path_, original);
  const std::uintmax_t fileBytes = std::filesystem::file_size(path_);
  EXPECT_GE(fileBytes, denseBytes);
  EXPECT_LT(fileBytes, denseBytes + 4096) << "pad lanes leaked to disk";
}

TEST_F(CheckpointTest, RestoredLevelExchangesCorrectly) {
  LevelData original = makeLevel();
  writeCheckpoint(path_, original);
  LevelData restored = readCheckpoint(path_);
  // The rebuilt copier must work: exchange and verify an interior ghost.
  restored.exchange();
  EXPECT_EQ(restored[0](8, 3, 3, 0), restored[1](8, 3, 3, 0));
}

TEST_F(CheckpointTest, RejectsCorruptMagic) {
  LevelData original = makeLevel();
  writeCheckpoint(path_, original);
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.write("XXXX", 4);
  }
  EXPECT_THROW((void)readCheckpoint(path_), std::runtime_error);
}

TEST_F(CheckpointTest, RejectsTruncatedFile) {
  LevelData original = makeLevel();
  writeCheckpoint(path_, original);
  // Truncate to half size.
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto size = in.tellg();
  in.close();
  std::filesystem::resize_file(path_, static_cast<std::uintmax_t>(size) / 2);
  EXPECT_THROW((void)readCheckpoint(path_), std::runtime_error);
}

TEST_F(CheckpointTest, MissingFileThrows) {
  EXPECT_THROW((void)readCheckpoint(testing::TempDir() + "no-such.ckpt"),
               std::runtime_error);
}

} // namespace
} // namespace fluxdiv::grid
