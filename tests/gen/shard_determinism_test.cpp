// Serial-vs-sharded determinism of corpus generation: the scenario's
// emission plan may be cut into any number of shards and replayed on any
// number of threads, and the merged corpus must stay byte-identical — the
// contract that lets bw-generate parallelize without changing a single
// analysis result. Verified here over the saved .bwds content hash for
// thread counts {1, 2, 8} and three seeds, plus the legacy single-slice
// Platform::run path and the shard-planner invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "gen/shard.hpp"
#include "util/parallel.hpp"

namespace bw {
namespace {

gen::ScenarioConfig test_config(std::uint64_t seed) {
  gen::ScenarioConfig cfg;
  cfg.scale = 0.03;
  cfg.seed = seed;
  return cfg;
}

/// FNV-1a over the saved .bwds bytes: the corpus identity the acceptance
/// contract is stated in.
std::uint64_t corpus_hash(const core::Dataset& dataset, const std::string& tag) {
  const std::string path =
      testing::TempDir() + "/bw_shard_determinism_" + tag + ".bwds";
  const util::Status saved = dataset.try_save(path);
  EXPECT_TRUE(saved.ok()) << saved.to_string();
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  char c;
  while (is.get(c)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::filesystem::remove(path);
  return h;
}

std::uint64_t generate_hash(std::uint64_t seed, std::size_t threads) {
  util::ThreadPool pool(threads - 1);
  const core::ScenarioRun run =
      core::run_scenario(test_config(seed), std::string{}, &pool);
  return corpus_hash(run.dataset,
                     std::to_string(seed) + "_" + std::to_string(threads));
}

TEST(ShardDeterminismTest, CorpusHashInvariantAcrossThreadCounts) {
  const std::uint64_t seeds[] = {20191021, 7, 20260806};
  std::vector<std::uint64_t> serial_hashes;
  for (const std::uint64_t seed : seeds) {
    const std::uint64_t serial = generate_hash(seed, 1);
    serial_hashes.push_back(serial);
    EXPECT_EQ(serial, generate_hash(seed, 2)) << "seed " << seed;
    EXPECT_EQ(serial, generate_hash(seed, 8)) << "seed " << seed;
  }
  // Different seeds must still produce different corpora — a hash function
  // that collapsed everything would vacuously pass the equalities above.
  EXPECT_NE(serial_hashes[0], serial_hashes[1]);
  EXPECT_NE(serial_hashes[0], serial_hashes[2]);
  EXPECT_NE(serial_hashes[1], serial_hashes[2]);
}

TEST(ShardDeterminismTest, LegacySingleSliceRunMatchesShardedScenario) {
  const gen::ScenarioConfig cfg = test_config(20191021);

  gen::Scenario scenario(cfg);
  ixp::Platform platform(gen::Scenario::platform_config(cfg));
  scenario.install(platform);
  ixp::RunResult result =
      platform.run(scenario.control(), scenario.traffic_source());
  const core::Dataset legacy =
      core::Dataset::from_run(std::move(result), platform);

  EXPECT_EQ(corpus_hash(legacy, "legacy"), generate_hash(cfg.seed, 8));
}

TEST(ShardDeterminismTest, PlannerCoversPlanContiguously) {
  gen::Scenario scenario(test_config(20191021));
  ixp::Platform platform(gen::Scenario::platform_config(test_config(20191021)));
  scenario.install(platform);
  const std::vector<gen::EmissionUnit> plan = scenario.emission_plan();
  ASSERT_FALSE(plan.empty());

  // Anchor-ordered plan.
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan[i - 1].anchor, plan[i].anchor);
  }

  for (const std::size_t shard_count : {1u, 2u, 7u, 32u}) {
    const auto shards = gen::plan_shards(plan, shard_count);
    ASSERT_FALSE(shards.empty());
    EXPECT_LE(shards.size(), shard_count);
    EXPECT_EQ(shards.front().begin, 0u);
    EXPECT_EQ(shards.back().end, plan.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      EXPECT_LT(shards[i].begin, shards[i].end);  // non-empty
      if (i > 0) EXPECT_EQ(shards[i - 1].end, shards[i].begin);  // contiguous
    }
  }

  // Degenerate inputs.
  EXPECT_TRUE(gen::plan_shards({}, 4).empty());
  const auto one = gen::plan_shards(std::span(plan.data(), 1), 16);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front().end, 1u);
}

}  // namespace
}  // namespace bw
