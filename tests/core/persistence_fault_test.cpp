// Persistence fault suite: every byte-level corruption of a .bwds container
// must be *detected* at load — never silently ingested — and a corrupt
// scenario cache must heal itself (quarantine + regenerate), never crash.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/pipeline.hpp"
#include "corpus.hpp"
#include "testing/fault.hpp"
#include "util/atomic_file.hpp"

namespace bw::core {
namespace {

namespace fs = std::filesystem;
using testutil::World;

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

class PersistenceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("bw_persistence_fault_" + std::string(::testing::UnitTest::
                                                      GetInstance()
                                                          ->current_test_info()
                                                          ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // A small but fully populated dataset: all five container sections
    // carry payload, so section-swap has material to work with.
    World world;
    const net::Ipv4 victim(24, 0, 0, 1);
    bgp::UpdateLog control;
    control.push_back(world.platform->service().make_announce(
        util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    control.push_back(world.platform->service().make_withdraw(
        2 * util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    std::vector<flow::TrafficBurst> bursts;
    bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 1), victim,
                                 net::Proto::kUdp, 123, 4444,
                                 {util::kHour, 2 * util::kHour}, 100,
                                 world.acceptor));
    Dataset dataset = world.run(std::move(control), bursts);
    clean_path_ = (dir_ / "clean.bwds").string();
    ASSERT_TRUE(dataset.try_save(clean_path_).ok());
    clean_bytes_ = read_bytes(clean_path_);
    ASSERT_GT(clean_bytes_.size(), 100u);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string clean_path_;
  std::string clean_bytes_;
};

// The acceptance gate: 4 fault kinds x >= 20 seeds each; a corrupted file
// either fails to load with a non-OK status, or — in the rare no-op draw —
// is byte-identical to the clean file. No third outcome exists.
TEST_F(PersistenceFaultTest, EveryBinaryFaultIsDetectedAcrossSeeds) {
  const testing::BinaryFaultKind kinds[] = {
      testing::BinaryFaultKind::kTruncate,
      testing::BinaryFaultKind::kBitFlip,
      testing::BinaryFaultKind::kTornRename,
      testing::BinaryFaultKind::kSectionSwap,
  };
  const std::string victim_path = (dir_ / "victim.bwds").string();
  for (const auto kind : kinds) {
    std::size_t detected = 0;
    std::size_t noop = 0;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      {
        std::ofstream os(victim_path, std::ios::binary | std::ios::trunc);
        os << clean_bytes_;
      }
      auto applied = bw::testing::apply_binary_fault(victim_path, kind, seed);
      ASSERT_TRUE(applied.ok())
          << bw::testing::to_string(kind) << " seed " << seed << ": "
          << applied.status().to_string();
      const auto loaded = Dataset::try_load(victim_path);
      if (loaded.ok()) {
        // Loading succeeded: only acceptable when the fault was a no-op.
        EXPECT_FALSE(applied->bytes_changed)
            << bw::testing::to_string(kind) << " seed " << seed
            << " changed bytes (" << applied->detail
            << ") yet the file still loaded";
        EXPECT_EQ(read_bytes(victim_path), clean_bytes_);
        ++noop;
      } else {
        EXPECT_TRUE(applied->bytes_changed);
        EXPECT_FALSE(loaded.status().to_string().empty());
        ++detected;
      }
    }
    // The draws must overwhelmingly produce real corruption; a kind whose
    // faults mostly no-op would not be testing anything.
    EXPECT_GE(detected, 20u) << bw::testing::to_string(kind) << " detected "
                             << detected << ", no-op " << noop;
  }
}

TEST_F(PersistenceFaultTest, TruncatedFileReportsTruncation) {
  const std::string path = (dir_ / "trunc.bwds").string();
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << clean_bytes_.substr(0, clean_bytes_.size() / 2);
  }
  const auto loaded = Dataset::try_load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().to_string().find("truncated"), std::string::npos)
      << loaded.status().to_string();
}

// Regression: a corrupt cache used to crash run_scenario with an uncaught
// exception from the loader. It must now be treated as a cache miss:
// quarantined, recorded, regenerated.
TEST_F(PersistenceFaultTest, CorruptScenarioCacheSelfHeals) {
  const std::string cache_dir = (dir_ / "cache").string();
  gen::ScenarioConfig cfg;
  cfg.scale = 0.01;
  cfg.seed = 7;
  cfg.period = {0, util::days(2)};

  // Cold run populates the cache.
  const ScenarioRun cold = run_scenario(cfg, cache_dir);
  EXPECT_TRUE(cold.cache_incidents.empty());
  std::string cache_path;
  for (const auto& entry : fs::directory_iterator(cache_dir)) {
    cache_path = entry.path().string();
  }
  ASSERT_FALSE(cache_path.empty()) << "cold run left no cache file";
  const std::string good_cache = read_bytes(cache_path);

  // Truncate the cache to a torn half-file, as a crashed writer would.
  {
    std::ofstream os(cache_path, std::ios::binary | std::ios::trunc);
    os << good_cache.substr(0, good_cache.size() / 3);
  }

  // The warm run must not crash, must produce the same corpus, and must
  // report exactly one incident with the bad bytes quarantined.
  const ScenarioRun healed = run_scenario(cfg, cache_dir);
  const auto s1 = cold.dataset.summary();
  const auto s2 = healed.dataset.summary();
  EXPECT_EQ(s1.control_updates, s2.control_updates);
  EXPECT_EQ(s1.flow_records, s2.flow_records);
  EXPECT_EQ(s1.dropped_packets, s2.dropped_packets);
  ASSERT_EQ(healed.cache_incidents.size(), 1u);
  const CacheIncident& incident = healed.cache_incidents[0];
  EXPECT_EQ(incident.path, cache_path);
  EXPECT_EQ(incident.quarantined_to, cache_path + ".corrupt");
  EXPECT_FALSE(incident.error.empty());
  EXPECT_TRUE(fs::exists(cache_path + ".corrupt"));

  // The regenerated cache is valid again: a third run is a clean hit.
  ASSERT_TRUE(fs::exists(cache_path));
  EXPECT_TRUE(Dataset::try_load(cache_path).ok());
  const ScenarioRun warm = run_scenario(cfg, cache_dir);
  EXPECT_TRUE(warm.cache_incidents.empty());
  EXPECT_EQ(warm.dataset.summary().flow_records, s1.flow_records);
}

// A cache that cannot be written records a save incident instead of
// failing the run — caching is an optimisation, not a requirement. A
// non-empty directory where the save's temp file goes blocks the save for
// any user, root included.
TEST_F(PersistenceFaultTest, UnwritableCacheRecordsSaveIncident) {
  const std::string cache_dir = (dir_ / "ro_cache").string();
  gen::ScenarioConfig cfg;
  cfg.scale = 0.01;
  cfg.seed = 9;
  cfg.period = {0, util::days(1)};
  const fs::path blocker(
      util::atomic_temp_path(cache_dir + "/" + scenario_cache_name(cfg)));
  fs::create_directories(blocker / "occupied");
  const ScenarioRun run = run_scenario(cfg, cache_dir);
  EXPECT_GT(run.dataset.summary().control_updates, 0u);
  ASSERT_EQ(run.cache_incidents.size(), 1u);
  EXPECT_TRUE(run.cache_incidents[0].quarantined_to.empty());
  EXPECT_FALSE(run.cache_incidents[0].error.empty());
}

}  // namespace
}  // namespace bw::core
