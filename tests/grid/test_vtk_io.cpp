#include "grid/vtk_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace fluxdiv::grid {
namespace {

class VtkTest : public testing::Test {
protected:
  // One file per test: ctest runs every case as its own process, so a
  // shared name would let one case's TearDown delete another's file.
  std::string path_ =
      testing::TempDir() + "fluxdiv_vtk_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".vtk";
  void TearDown() override { std::remove(path_.c_str()); }

  static LevelData makeLevel() {
    DisjointBoxLayout dbl(ProblemDomain(Box::cube(8)), 4);
    LevelData ld(dbl, 2, 2);
    for (std::size_t b = 0; b < ld.size(); ++b) {
      forEachCell(ld.validBox(b), [&](int i, int j, int k) {
        ld[b](i, j, k, 0) = i + 100.0 * j + 10000.0 * k;
        ld[b](i, j, k, 1) = -1.5;
      });
    }
    return ld;
  }
};

TEST_F(VtkTest, AsciiRoundTripPreservesValues) {
  LevelData ld = makeLevel();
  VtkWriteOptions opts;
  opts.componentNames = {"rho", "u"};
  writeVtk(path_, ld, opts);

  const VtkData back = readVtkCellData(path_);
  EXPECT_EQ(back.dims, IntVect(8, 8, 8));
  ASSERT_EQ(back.names.size(), 2u);
  EXPECT_EQ(back.names[0], "rho");
  EXPECT_EQ(back.names[1], "u");
  // x-fastest flattening: cell (i,j,k) at i + 8*(j + 8*k).
  EXPECT_EQ(back.data[0][0], 0.0);
  EXPECT_EQ(back.data[0][3], 3.0);
  EXPECT_EQ(back.data[0][8 * 8 * 7 + 8 * 2 + 5], 5 + 200.0 + 70000.0);
  for (Real v : back.data[1]) {
    ASSERT_EQ(v, -1.5);
  }
}

TEST_F(VtkTest, DefaultComponentNames) {
  LevelData ld = makeLevel();
  writeVtk(path_, ld);
  const VtkData back = readVtkCellData(path_);
  EXPECT_EQ(back.names[0], "comp0");
  EXPECT_EQ(back.names[1], "comp1");
}

TEST_F(VtkTest, HeaderDeclaresPointDimensionsAndSpacing) {
  LevelData ld = makeLevel();
  VtkWriteOptions opts;
  opts.spacing = 0.125;
  writeVtk(path_, ld, opts);
  std::ifstream in(path_);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("DIMENSIONS 9 9 9"), std::string::npos);
  EXPECT_NE(content.find("SPACING 0.125 0.125 0.125"), std::string::npos);
  EXPECT_NE(content.find("CELL_DATA 512"), std::string::npos);
}

TEST_F(VtkTest, BinaryModeWritesParsableHeader) {
  LevelData ld = makeLevel();
  VtkWriteOptions opts;
  opts.binary = true;
  writeVtk(path_, ld, opts);
  std::ifstream in(path_, std::ios::binary);
  std::string header(128, '\0');
  in.read(header.data(), 128);
  EXPECT_NE(header.find("BINARY"), std::string::npos);
  // The reader refuses binary (documented).
  EXPECT_THROW((void)readVtkCellData(path_), std::runtime_error);
}

TEST_F(VtkTest, WriteFailsOnBadPath) {
  LevelData ld = makeLevel();
  EXPECT_THROW(writeVtk("/nonexistent-dir/x.vtk", ld),
               std::runtime_error);
}

TEST_F(VtkTest, ReadFailsOnMissingFile) {
  EXPECT_THROW((void)readVtkCellData(testing::TempDir() + "nope.vtk"),
               std::runtime_error);
}

TEST_F(VtkTest, GhostValuesDoNotLeakIntoOutput) {
  LevelData ld = makeLevel();
  ld[0](IntVect(-1, -1, -1), 0) = 1e30; // poison a ghost
  writeVtk(path_, ld);
  const VtkData back = readVtkCellData(path_);
  for (Real v : back.data[0]) {
    ASSERT_LT(v, 1e6);
  }
}

} // namespace
} // namespace fluxdiv::grid
