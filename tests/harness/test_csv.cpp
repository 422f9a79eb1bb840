#include "harness/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace fluxdiv::harness {
namespace {

std::string readAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public testing::Test {
protected:
  // One file per test: ctest runs every case as its own process, so a
  // shared name would let one case's TearDown delete another's file.
  std::string path_ =
      testing::TempDir() + "fluxdiv_csv_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    ASSERT_TRUE(csv.enabled());
    csv.writeRow({"1", "2"});
    csv.writeRow({"x", "y"});
  }
  EXPECT_EQ(readAll(path_), "a,b\n1,2\nx,y\n");
}

TEST_F(CsvTest, QuotesCommasAndQuotes) {
  {
    CsvWriter csv(path_, {"name"});
    csv.writeRow({"hello, world"});
    csv.writeRow({"say \"hi\""});
  }
  EXPECT_EQ(readAll(path_), "name\n\"hello, world\"\n\"say \"\"hi\"\"\"\n");
}

TEST(CsvWriter, EmptyPathIsDisabledNoop) {
  CsvWriter csv("", {"a"});
  EXPECT_FALSE(csv.enabled());
  csv.writeRow({"ignored"}); // must not crash
}

} // namespace
} // namespace fluxdiv::harness
