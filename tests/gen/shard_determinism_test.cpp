// Serial-vs-sharded determinism of corpus generation: the scenario's
// emission plan may be cut into any number of shards and replayed on any
// number of threads, and the merged corpus must stay byte-identical — the
// contract that lets bw-generate parallelize without changing a single
// analysis result. Verified here over the saved .bwds content hash for
// thread counts {1, 2, 8} and three seeds, plus the legacy single-slice
// Platform::run path and the shard-planner invariants. The save itself
// encodes chunks on a pool, so its bytes are checked across save pools of
// 1, 2 and 8 too, at the default chunk size and at a ragged one; and a
// one-thread pool must keep the whole run on the calling thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
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

/// FNV-1a over the bytes `dataset` saves with `pool` (null: the global
/// pool): the corpus identity the acceptance contract is stated in.
std::uint64_t corpus_hash(const core::Dataset& dataset, const std::string& tag,
                          util::ThreadPool* pool = nullptr) {
  const std::string path =
      testing::TempDir() + "/bw_shard_determinism_" + tag + ".bwds";
  const util::Status saved = dataset.try_save(path, pool);
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
                     std::to_string(seed) + "_" + std::to_string(threads),
                     &pool);
}

/// Threads of this process.
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    static_cast<void>(task);
    ++n;
  }
  return n;
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

TEST(ShardDeterminismTest, SavedBytesInvariantAcrossSavePools) {
  util::ThreadPool generate_pool(1);
  const core::ScenarioRun run =
      core::run_scenario(test_config(7), std::string{}, &generate_pool);
  // 1000-row chunks leave a ragged last chunk and split bitmap words.
  std::vector<std::uint64_t> per_chunk_size;
  for (const char* rows : {"", "1000"}) {
    if (*rows != '\0') ::setenv("BW_STORE_CHUNK_ROWS", rows, 1);
    std::vector<std::uint64_t> hashes;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads - 1);
      hashes.push_back(
          corpus_hash(run.dataset, "save_t" + std::to_string(threads), &pool));
    }
    ::unsetenv("BW_STORE_CHUNK_ROWS");
    EXPECT_EQ(hashes[0], hashes[1]) << "chunk rows '" << rows << "'";
    EXPECT_EQ(hashes[0], hashes[2]) << "chunk rows '" << rows << "'";
    per_chunk_size.push_back(hashes[0]);
  }
  EXPECT_NE(per_chunk_size[0], per_chunk_size[1]);
}

TEST(ShardDeterminismTest, OneThreadPoolRunsOnOneThread) {
  // bw-generate --threads 1 hands a workerless pool to generation, merge,
  // index build and save, so the process must never start a thread. The
  // threadsafe death-test style runs the body in a fresh process, where no
  // earlier test has started the global pool.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        util::ThreadPool pool(0);
        const core::ScenarioRun run =
            core::run_scenario(test_config(7), std::string{}, &pool);
        const std::string path =
            testing::TempDir() + "/bw_shard_determinism_one_thread.bwds";
        const bool saved = run.dataset.try_save(path, &pool).ok();
        static_cast<void>(run.dataset.summary(&pool));
        std::filesystem::remove(path);
        std::exit(saved && thread_count() == 1 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
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
      if (i > 0) {
        EXPECT_EQ(shards[i - 1].end, shards[i].begin);  // contiguous
      }
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
