#include "tuner/tunedb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "analysis/costmodel.hpp"

namespace fluxdiv::tuner {
namespace {

MachineSignature fakeMachine(const std::string& model = "Test CPU @ 9GHz") {
  MachineSignature sig;
  sig.cpuModel = model;
  sig.logicalCores = 8;
  sig.llcBytes = 16 * 1024 * 1024;
  return sig;
}

TuneKey key(const std::string& scheme = "rk4", int boxSize = 16,
            int threads = 4) {
  return TuneKey{scheme, boxSize, 2, threads};
}

std::string tmpPath(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(TuneDB, RoundTripThroughDisk) {
  const std::string path = tmpPath("tunedb_roundtrip.json");
  TuneDB db(fakeMachine());
  db.observe(key(), core::StepFuse::Fused, core::LevelPolicy::BoxSequential,
             1.25e-3);
  db.save(path);

  TuneDB reloaded(fakeMachine());
  ASSERT_TRUE(reloaded.load(path));
  EXPECT_EQ(reloaded.size(), 1U);
  const TuneEntry* e = reloaded.find(key());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->fuse, core::StepFuse::Fused);
  EXPECT_EQ(e->policy, core::LevelPolicy::BoxSequential);
  EXPECT_DOUBLE_EQ(e->seconds, 1.25e-3);
  EXPECT_TRUE(e->measured);

  // A warm key is a hit: repeat traffic never re-tunes.
  const TuneEntry& hit = reloaded.suggest(key());
  EXPECT_TRUE(hit.measured);
  EXPECT_EQ(reloaded.counters().hits, 1U);
  EXPECT_EQ(reloaded.counters().misses, 0U);

  // A file from before the per-stage fuse mode was removed may hold a
  // record naming it (fuse staged): that record alone is dropped and
  // counted, the file still loads, and its other records are kept.
  db.observe(key("rk4", 32, 4), core::StepFuse::Fused,
             core::LevelPolicy::BoxParallel, 2.0e-3);
  db.save(path);
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::string fused = "\"fuse\": \"fused\"";
  const std::size_t at = text.find(fused, text.find("\"boxSize\": 32"));
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, fused.size(), "\"fuse\": \"staged\"");
  std::ofstream(path, std::ios::trunc) << text;
  TuneDB old(fakeMachine());
  ASSERT_TRUE(old.load(path));
  EXPECT_EQ(old.counters().rejected, 1U);
  EXPECT_EQ(old.size(), 1U);
  EXPECT_EQ(old.find(key("rk4", 32, 4)), nullptr);
  ASSERT_NE(old.find(key()), nullptr);
  EXPECT_EQ(old.find(key())->policy, core::LevelPolicy::BoxSequential);
}

TEST(TuneDB, RemovedHybridPolicyRecordIsRejectedAndTheRestLoads) {
  // A file from before the hybrid level policy was folded into the
  // parallel policy's logical tiles may hold a record naming it: that
  // record alone is dropped and counted, the others load.
  const std::string path = tmpPath("tunedb_hybrid.json");
  TuneDB db(fakeMachine());
  db.observe(key("rk4", 16, 4), core::StepFuse::Fused,
             core::LevelPolicy::BoxParallel, 1.0);
  db.observe(key("rk4", 128, 4), core::StepFuse::Fused,
             core::LevelPolicy::BoxSequential, 2.0);
  db.observe(key("euler", 32, 4), core::StepFuse::Fused,
             core::LevelPolicy::BoxParallel, 3.0);
  db.save(path);
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::string sequential = "\"policy\": \"sequential\"";
  const std::size_t at = text.find(sequential);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, sequential.size(), "\"policy\": \"hybrid\"");
  std::ofstream(path, std::ios::trunc) << text;

  TuneDB old(fakeMachine());
  ASSERT_TRUE(old.load(path));
  EXPECT_EQ(old.counters().rejected, 1U);
  EXPECT_EQ(old.size(), 2U);
  EXPECT_EQ(old.find(key("rk4", 128, 4)), nullptr);
  ASSERT_NE(old.find(key("rk4", 16, 4)), nullptr);
  ASSERT_NE(old.find(key("euler", 32, 4)), nullptr);
  EXPECT_DOUBLE_EQ(old.find(key("euler", 32, 4))->seconds, 3.0);
}

TEST(TuneDB, RemovedCommAvoidRecordIsRejectedAndTheRestLoads) {
  // A file written before comm-avoiding step fusion was deleted: one
  // record names it, and every record carries the prior's priced bytes.
  // The commavoid record alone is dropped and counted; the fused one
  // loads, and the priorCostBytes key is ignored.
  const std::string path = tmpPath("tunedb_commavoid.json");
  const MachineSignature sig = fakeMachine();
  std::ofstream(path, std::ios::trunc)
      << "{\n  \"machine\": {\"cpuModel\": \"" << sig.cpuModel
      << "\", \"logicalCores\": " << sig.logicalCores
      << ", \"llcBytes\": " << sig.llcBytes << "},\n  \"records\": [\n"
      << "    {\"scheme\": \"rk4\", \"boxSize\": 16, \"ghost\": 2, "
         "\"threads\": 4, \"fuse\": \"commavoid\", \"policy\": "
         "\"parallel\", \"seconds\": 0.002, \"priorCostBytes\": 1.5e+06, "
         "\"refines\": 1},\n"
      << "    {\"scheme\": \"ssprk3\", \"boxSize\": 24, \"ghost\": 2, "
         "\"threads\": 4, \"fuse\": \"fused\", \"policy\": "
         "\"sequential\", \"seconds\": 0.003, \"priorCostBytes\": "
         "2.5e+06, \"refines\": 2}\n  ]\n}\n";
  TuneDB old(sig);
  ASSERT_TRUE(old.load(path));
  EXPECT_EQ(old.counters().rejected, 1U);
  EXPECT_EQ(old.size(), 1U);
  EXPECT_EQ(old.find(key("rk4", 16, 4)), nullptr);
  const TuneEntry* e = old.find(key("ssprk3", 24, 4));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->fuse, core::StepFuse::Fused);
  EXPECT_EQ(e->policy, core::LevelPolicy::BoxSequential);
  EXPECT_DOUBLE_EQ(e->seconds, 0.003);
  EXPECT_EQ(e->refines, 2);
}

TEST(TuneDB, MachineMismatchFallsBackToCostModelPrior) {
  const std::string path = tmpPath("tunedb_foreign.json");
  TuneDB writer(fakeMachine("Node A"));
  writer.observe(key(), core::StepFuse::Eager,
                 core::LevelPolicy::BoxSequential, 9.9);
  writer.save(path);

  TuneDB db(fakeMachine("Node B"));
  ASSERT_TRUE(db.load(path));
  EXPECT_EQ(db.size(), 0U) << "foreign measurements must not transfer";
  EXPECT_GE(db.counters().rejected, 1U);

  const TuneEntry& prior = db.suggest(key());
  EXPECT_FALSE(prior.measured);
  EXPECT_EQ(db.counters().misses, 1U);
  // The fallback is the analysis ranking, not the foreign record.
  EXPECT_NE(prior.fuse, core::StepFuse::Eager);
}

TEST(TuneDB, PriorMatchesLevelPolicyRanking) {
  // The prior runs the fused step graph, the one graph mode, under the
  // level policy analyzeLevelPolicies predicts fastest from the service
  // variant's cost report under the machine's LLC.
  const MachineSignature machine = fakeMachine();
  analysis::CacheSpec spec;
  spec.llcBytes = machine.llcBytes;
  for (const int n : {8, 16, 64}) {
    for (const int nBoxes : {1, 8}) {
      const TuneEntry prior = costModelPrior(key("rk4", n, 4), nBoxes,
                                             machine);
      EXPECT_EQ(prior.fuse, core::StepFuse::Fused);
      EXPECT_FALSE(prior.measured);
      const auto policies = analysis::analyzeLevelPolicies(
          core::makeShiftFuse(core::ParallelGranularity::WithinBox), n,
          nBoxes, 4, spec);
      const auto best = std::max_element(
          policies.begin(), policies.end(), [](const auto& a, const auto& b) {
            return a.predictedSpeedup < b.predictedSpeedup;
          });
      EXPECT_EQ(prior.policy, best->policy)
          << nBoxes << " x " << n << "^3";
    }
  }
  EXPECT_THROW(costModelPrior(TuneKey{"rk9", 16, 2, 4}, 8, fakeMachine()),
               std::invalid_argument);
}

TEST(TuneDB, PriorAdmitsServeWarmShapesFused) {
  // benchsuite's serve-warm mix: {ssprk3, rk4} x box {12, 16, 24} x
  // {2, 4} boxes at 4 threads, every shape admitted to the fused graph.
  for (const char* scheme : {"ssprk3", "rk4"}) {
    for (const int n : {12, 16, 24}) {
      for (const int nBoxes : {2, 4}) {
        EXPECT_EQ(costModelPrior(key(scheme, n, 4), nBoxes, fakeMachine())
                      .fuse,
                  core::StepFuse::Fused)
            << scheme << " " << nBoxes << " x " << n << "^3";
      }
    }
  }
}

TEST(TuneDB, PriorIsSeededOnceAndUpgradedByObserve) {
  TuneDB db(fakeMachine());
  const TuneEntry& p1 = db.suggest(key());
  EXPECT_FALSE(p1.measured);
  db.suggest(key());
  EXPECT_EQ(db.counters().seeds, 1U) << "prior memoized, not re-derived";
  EXPECT_EQ(db.counters().misses, 2U);

  db.observe(key(), core::StepFuse::Fused, core::LevelPolicy::BoxParallel,
             2.0e-3);
  const TuneEntry& hit = db.suggest(key());
  EXPECT_TRUE(hit.measured);
  EXPECT_EQ(db.counters().hits, 1U);
  EXPECT_EQ(db.size(), 1U);
}

TEST(TuneDB, ObserveKeepsTheFasterChoice) {
  TuneDB db(fakeMachine());
  db.observe(key(), core::StepFuse::Fused, core::LevelPolicy::BoxParallel,
             2.0);
  db.observe(key(), core::StepFuse::Fused,
             core::LevelPolicy::BoxSequential, 1.0);
  const TuneEntry* e = db.find(key());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->policy, core::LevelPolicy::BoxSequential);
  EXPECT_DOUBLE_EQ(e->seconds, 1.0);

  // A slower repeat of a different choice does not displace the record;
  // a faster repeat of the same choice tightens it.
  db.observe(key(), core::StepFuse::Fused, core::LevelPolicy::BoxParallel,
             1.5);
  EXPECT_EQ(db.find(key())->policy, core::LevelPolicy::BoxSequential);
  db.observe(key(), core::StepFuse::Fused,
             core::LevelPolicy::BoxSequential, 0.5);
  EXPECT_DOUBLE_EQ(db.find(key())->seconds, 0.5);
  EXPECT_EQ(db.counters().refines, 4U);
}

TEST(TuneDB, PriorsAreNotPersisted) {
  const std::string path = tmpPath("tunedb_priors.json");
  TuneDB db(fakeMachine());
  db.suggest(key());
  db.save(path);
  TuneDB reloaded(fakeMachine());
  ASSERT_TRUE(reloaded.load(path));
  EXPECT_EQ(reloaded.size(), 0U);
}

TEST(TuneDB, EscapedMachineStringsRoundTrip) {
  const std::string path = tmpPath("tunedb_escape.json");
  const MachineSignature sig =
      fakeMachine("Weird \"CPU\"\\ with\ttabs\nand newlines");
  TuneDB db(sig);
  db.observe(key(), core::StepFuse::Fused, core::LevelPolicy::BoxParallel,
             1.0);
  db.save(path);
  TuneDB reloaded(sig);
  ASSERT_TRUE(reloaded.load(path));
  EXPECT_EQ(reloaded.size(), 1U) << "signature must match after escaping";
}

TEST(TuneDB, MissingFileIsAColdCache) {
  TuneDB db(fakeMachine());
  EXPECT_FALSE(db.load(tmpPath("tunedb_does_not_exist.json")));
  EXPECT_EQ(db.size(), 0U);
}

TEST(TuneDB, FailedSaveLeavesTheOldFileIntact) {
  const std::string path = tmpPath("tunedb_atomic.json");
  TuneDB db(fakeMachine());
  db.observe(key("rk4", 16, 4), core::StepFuse::Fused,
             core::LevelPolicy::BoxParallel, 1.0);
  db.observe(key("ssprk3", 16, 4), core::StepFuse::Fused,
             core::LevelPolicy::BoxSequential, 2.0);
  db.save(path);

  // A directory where the temp file goes: the save cannot start.
  const std::filesystem::path blocker = path + ".tmp";
  std::filesystem::create_directory(blocker);
  db.observe(key("rk4", 32, 4), core::StepFuse::Fused,
             core::LevelPolicy::BoxParallel, 3.0);
  EXPECT_THROW(db.save(path), std::runtime_error);
  EXPECT_TRUE(std::filesystem::is_directory(blocker));
  std::filesystem::remove(blocker);

  TuneDB reloaded(fakeMachine());
  ASSERT_TRUE(reloaded.load(path));
  EXPECT_EQ(reloaded.size(), 2U);
  EXPECT_NE(reloaded.find(key("rk4", 16, 4)), nullptr);
  EXPECT_NE(reloaded.find(key("ssprk3", 16, 4)), nullptr);
  EXPECT_EQ(reloaded.find(key("rk4", 32, 4)), nullptr);
}

TEST(TuneDB, EveryTruncatedPrefixLoadsWithoutThrowing) {
  const std::string path = tmpPath("tunedb_truncated.json");
  TuneDB db(fakeMachine());
  db.observe(key("rk4", 16, 4), core::StepFuse::Fused,
             core::LevelPolicy::BoxParallel, 1.0);
  db.observe(key("ssprk3", 24, 4), core::StepFuse::Fused,
             core::LevelPolicy::BoxSequential, 2.0);
  db.observe(key("euler", 8, 2), core::StepFuse::Fused,
             core::LevelPolicy::BoxSequential, 3.0);
  db.save(path);
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(text.size(), 100U);
  for (std::size_t n = 0; n < text.size(); ++n) {
    std::ofstream(path, std::ios::trunc) << text.substr(0, n);
    TuneDB cut(fakeMachine());
    bool loaded = true;
    EXPECT_NO_THROW(loaded = cut.load(path)) << "prefix of " << n;
    if (!loaded) {
      EXPECT_EQ(cut.size(), 0U) << "a cold load keeps no records";
    }
  }
  std::ofstream(path, std::ios::trunc) << text;
  TuneDB full(fakeMachine());
  ASSERT_TRUE(full.load(path));
  EXPECT_EQ(full.size(), 3U);
}

TEST(TuneDB, KeysDiscriminateEveryField) {
  TuneDB db(fakeMachine());
  db.observe(key("rk4", 16, 4), core::StepFuse::Fused,
             core::LevelPolicy::BoxParallel, 1.0);
  EXPECT_EQ(db.find(key("rk4", 32, 4)), nullptr);
  EXPECT_EQ(db.find(key("ssprk3", 16, 4)), nullptr);
  EXPECT_EQ(db.find(key("rk4", 16, 8)), nullptr);
  TuneKey g = key("rk4", 16, 4);
  g.ghost = 3;
  EXPECT_EQ(db.find(g), nullptr);
  EXPECT_NE(db.find(key("rk4", 16, 4)), nullptr);
}

} // namespace
} // namespace fluxdiv::tuner
