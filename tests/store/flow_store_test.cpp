// FlowStore integration: open a saved v3 corpus with tiny chunks and check
// that the out-of-core scans reproduce the in-RAM FlowColumns contract
// exactly — same scanned-row counts, same visit order, same values — while
// pruning skips chunks without ever decoding them.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/dataset.hpp"
#include "core/corpus.hpp"
#include "obs/metrics.hpp"
#include "store/flow_store.hpp"

namespace bw::store {
namespace {

namespace fs = std::filesystem;
using bw::core::testutil::World;

/// One visited row, for order-exact comparisons across scan paths.
struct Row {
  util::TimeMs time;
  std::uint32_t dst_ip;
  std::uint32_t src_ip;
  std::uint64_t bytes;
  bool operator==(const Row&) const = default;
};

class FlowStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new fs::path(fs::path(::testing::TempDir()) /
                        ("bw_flow_store_test." +
                         std::to_string(::getpid())));
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);

    World world;
    const net::Ipv4 victim(24, 0, 0, 1);
    const net::Ipv4 neighbor(24, 0, 9, 1);
    bgp::UpdateLog control;
    control.push_back(world.platform->service().make_announce(
        util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    control.push_back(world.platform->service().make_withdraw(
        3 * util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    std::vector<flow::TrafficBurst> bursts;
    bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 1), victim,
                                 net::Proto::kUdp, 123, 4444,
                                 // Not a multiple of the 16-row chunk size:
                                 // one chunk must straddle the two /24s so
                                 // the bloom-prune test has a gap chunk.
                                 {util::kHour, 3 * util::kHour}, 165,
                                 world.acceptor));
    bursts.push_back(world.burst(net::Ipv4(64, 0, 7, 2), neighbor,
                                 net::Proto::kTcp, 80, 5555,
                                 {0, 2 * util::kHour}, 120, world.rejector));
    dataset_ = new core::Dataset(world.run(std::move(control), bursts));

    path_ = new std::string((*dir_ / "store.bwds").string());
    // Tiny chunks so the corpus spans many of them.
    ::setenv("BW_STORE_CHUNK_ROWS", "16", 1);
    ASSERT_TRUE(dataset_->try_save(*path_).ok());
    ::unsetenv("BW_STORE_CHUNK_ROWS");
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete path_;
    path_ = nullptr;
    fs::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static fs::path* dir_;
  static core::Dataset* dataset_;
  static std::string* path_;
};

fs::path* FlowStoreTest::dir_ = nullptr;
core::Dataset* FlowStoreTest::dataset_ = nullptr;
std::string* FlowStoreTest::path_ = nullptr;

TEST_F(FlowStoreTest, OpenReadsMetadataOnly) {
  auto store = FlowStore::open(*path_);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const auto& s = **store;
  EXPECT_EQ(s.flow_count(), dataset_->columns().size());
  EXPECT_GT(s.chunk_count(), 3u) << "16-row chunks should split the corpus";
  EXPECT_EQ(s.chunk_count(), s.dst_metas().size());
  EXPECT_GT(s.src_chunk_count(), 3u);
  EXPECT_TRUE(std::is_sorted(s.mac_dict().begin(), s.mac_dict().end()));
  // Nothing decoded at open: chunk payloads stay on disk.
  EXPECT_EQ(s.chunks_decoded(), 0u);
}

TEST_F(FlowStoreTest, ScanDstMatchesInRamOrderAndCount) {
  auto store = FlowStore::open(*path_);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const flow::FlowColumns& cols = dataset_->columns();

  const auto prefix = net::Prefix::host(net::Ipv4(24, 0, 0, 1));
  const util::TimeRange window{util::kHour, 2 * util::kHour};

  std::vector<Row> in_ram;
  const std::uint64_t ram_rows =
      cols.for_each_dst_row(prefix, window, [&](std::size_t i) {
        in_ram.push_back(
            {cols.time[i], cols.dst_ip[i], cols.src_ip[i], cols.bytes[i]});
      });

  std::vector<Row> out_of_core;
  const std::uint64_t ooc_rows = (*store)->scan_dst(
      prefix, window, [&](const ChunkData& ch, std::size_t i) {
        out_of_core.push_back({ch.cols.time[i], ch.cols.dst_ip[i],
                               ch.cols.src_ip[i], ch.cols.bytes[i]});
      });

  EXPECT_EQ(ram_rows, ooc_rows);
  EXPECT_EQ(in_ram, out_of_core);
  EXPECT_FALSE(in_ram.empty());
}

TEST_F(FlowStoreTest, ScanRunsMatchInRam) {
  auto store = FlowStore::open(*path_);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const flow::FlowColumns& cols = dataset_->columns();

  const net::Ipv4 victim(24, 0, 0, 1);
  const flow::FlowColumns::Range run = cols.dst_run(victim);
  std::uint64_t ram_ports = 0;
  for (std::size_t i = run.begin; i < run.end; ++i) ram_ports += cols.dst_port[i];
  std::uint64_t ooc_ports = 0;
  const std::uint64_t dst_rows = (*store)->scan_dst_run(
      victim, [&](const ChunkData& ch, std::size_t i) {
        ooc_ports += ch.cols.dst_port[i];
      });
  EXPECT_EQ(dst_rows, run.size());
  EXPECT_EQ(ram_ports, ooc_ports);

  const net::Ipv4 source(64, 0, 7, 2);
  const flow::FlowColumns::Range srun = cols.src_run(source);
  std::uint64_t ram_sports = 0;
  for (std::size_t i = srun.begin; i < srun.end; ++i) {
    ram_sports += cols.s_src_port[i];
  }
  std::uint64_t ooc_sports = 0;
  const std::uint64_t src_rows = (*store)->scan_src_run(
      source, [&](const ChunkData& ch, std::size_t i) {
        ooc_sports += ch.cols.s_src_port[i];
      });
  EXPECT_EQ(src_rows, srun.size());
  EXPECT_GT(src_rows, 0u);
  EXPECT_EQ(ram_sports, ooc_sports);
}

TEST_F(FlowStoreTest, RangePruneNeverDecodesOutOfRangeChunks) {
  auto store = FlowStore::open(*path_);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  // Above every dst in the corpus: the zone-map break prunes all chunks.
  const std::uint64_t rows = (*store)->scan_dst(
      net::Prefix::host(net::Ipv4(250, 0, 0, 1)), {0, util::days(7)},
      [&](const ChunkData&, std::size_t) { FAIL() << "visited a row"; });
  EXPECT_EQ(rows, 0u);
  EXPECT_EQ((*store)->chunks_decoded(), 0u);
}

TEST_F(FlowStoreTest, BloomPrunesAbsentSlash24) {
  auto store = FlowStore::open(*path_);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  // 24.0.5.0/24 sits between the two populated /24s (24.0.0.x, 24.0.9.x):
  // range checks alone cannot rule out the chunk that spans the gap, the
  // bloom filter can.
  const std::uint64_t rows = (*store)->scan_dst(
      net::Prefix::host(net::Ipv4(24, 0, 5, 1)), {0, util::days(7)},
      [&](const ChunkData&, std::size_t) { FAIL() << "visited a row"; });
  EXPECT_EQ(rows, 0u);
  EXPECT_GT((*store)->chunks_pruned() + (*store)->chunks_decoded(), 0u);
  // The in-RAM path finds nothing either (pruning is exact, not lossy).
  EXPECT_EQ(dataset_->columns()
                .dst_run(net::Ipv4(24, 0, 5, 1))
                .size(),
            0u);
}

TEST_F(FlowStoreTest, RecordAtReassemblesTheOriginalFlow) {
  auto store = FlowStore::open(*path_);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const flow::FlowLog& flows = dataset_->flows();
  // A materializing load decodes each dst chunk into spans of its final
  // columns and reassembles the records from them.
  ChunkData chunk;
  const DstChunkSpans spans =
      dst_spans(chunk, (*store)->dst_metas()[0].row_count);
  ASSERT_TRUE((*store)->try_decode(0, spans).ok());
  ASSERT_GT(spans.rows(), 0u);
  for (std::size_t i = 0; i < spans.rows(); ++i) {
    const flow::FlowRecord rec = (*store)->record_at(spans, i);
    const flow::FlowRecord& orig = flows[spans.orig_pos[i]];
    EXPECT_EQ(rec.time, orig.time);
    EXPECT_EQ(rec.src_ip, orig.src_ip);
    EXPECT_EQ(rec.dst_ip, orig.dst_ip);
    EXPECT_EQ(rec.proto, orig.proto);
    EXPECT_EQ(rec.src_port, orig.src_port);
    EXPECT_EQ(rec.dst_port, orig.dst_port);
    EXPECT_EQ(rec.src_mac, orig.src_mac);
    EXPECT_EQ(rec.dst_mac, orig.dst_mac);
    EXPECT_EQ(rec.packets, orig.packets);
    EXPECT_EQ(rec.bytes, orig.bytes);
  }
}

TEST_F(FlowStoreTest, PreadPathMatchesMmap) {
  ::setenv("BW_STORE_NO_MMAP", "1", 1);
  auto streamed = FlowStore::open(*path_);
  ::unsetenv("BW_STORE_NO_MMAP");
  ASSERT_TRUE(streamed.ok()) << streamed.status().to_string();
  EXPECT_FALSE((*streamed)->mapped());

  auto mapped = FlowStore::open(*path_);
  ASSERT_TRUE(mapped.ok());

  const auto prefix = net::Prefix::host(net::Ipv4(24, 0, 0, 1));
  const util::TimeRange window{0, util::days(7)};
  std::vector<Row> a;
  std::vector<Row> b;
  (*streamed)->scan_dst(prefix, window, [&](const ChunkData& ch, std::size_t i) {
    a.push_back({ch.cols.time[i], ch.cols.dst_ip[i], ch.cols.src_ip[i],
                 ch.cols.bytes[i]});
  });
  (*mapped)->scan_dst(prefix, window, [&](const ChunkData& ch, std::size_t i) {
    b.push_back({ch.cols.time[i], ch.cols.dst_ip[i], ch.cols.src_ip[i],
                 ch.cols.bytes[i]});
  });
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// A load -> save round trip (bw-convert --out) preserves every flow, and
// re-saving an unchanged dataset is byte-deterministic, so rewritten
// corpora are stable cache keys.
TEST_F(FlowStoreTest, ResavingALoadedStoreReproducesItsBytes) {
  auto loaded = core::Dataset::try_load(*path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();

  const flow::FlowLog& a = dataset_->flows();
  const flow::FlowLog& b = loaded->flows();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].dst_ip, b[i].dst_ip);
    EXPECT_EQ(a[i].src_mac, b[i].src_mac);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
  const auto sa = dataset_->summary();
  const auto sb = loaded->summary();
  EXPECT_EQ(sa.control_updates, sb.control_updates);
  EXPECT_EQ(sa.flow_records, sb.flow_records);
  EXPECT_EQ(sa.dropped_packets, sb.dropped_packets);

  // Both files are written with the same chunk geometry.
  const std::string again_path = (*dir_ / "again.bwds").string();
  ::setenv("BW_STORE_CHUNK_ROWS", "16", 1);
  ASSERT_TRUE(loaded->try_save(again_path).ok());
  ::unsetenv("BW_STORE_CHUNK_ROWS");
  std::ifstream f1(*path_, std::ios::binary);
  std::ifstream f2(again_path, std::ios::binary);
  std::ostringstream s1;
  std::ostringstream s2;
  s1 << f1.rdbuf();
  s2 << f2.rdbuf();
  EXPECT_EQ(s1.str(), s2.str());
}

TEST_F(FlowStoreTest, OutOfRangeChunkIsAnError) {
  auto store = FlowStore::open(*path_);
  ASSERT_TRUE(store.ok());
  std::shared_ptr<const ChunkData> chunk;
  const util::Status s =
      (*store)->try_chunk((*store)->chunk_count() + 7, false, chunk);
  EXPECT_FALSE(s.ok());
}

// The shared decoded-chunk cache, on the same multi-chunk fixture. A suite
// of its own so CTest can label it `tsan` (see tests/CMakeLists.txt).
class FlowStoreCacheTest : public FlowStoreTest {};

TEST_F(FlowStoreCacheTest, ConcurrentMissesDecodeEachChunkOnce) {
  auto store = FlowStore::open(*path_);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const FlowStore& s = **store;
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::uint64_t> rows(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Half the threads walk backwards so misses collide from both ends.
      for (std::size_t j = 0; j < s.chunk_count(); ++j) {
        const std::size_t k = t % 2 == 0 ? j : s.chunk_count() - 1 - j;
        rows[t] += s.chunk(k)->rows();
      }
      for (std::size_t j = 0; j < s.src_chunk_count(); ++j) {
        const std::size_t k = t % 2 == 0 ? j : s.src_chunk_count() - 1 - j;
        rows[t] += s.src_chunk(k)->rows();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::uint64_t r : rows) EXPECT_EQ(r, 2 * s.flow_count());
  EXPECT_EQ(s.chunks_decoded(), s.chunk_count() + s.src_chunk_count());
  EXPECT_GT(s.cache_bytes(), 0u);
}

TEST_F(FlowStoreCacheTest, SecondFullWalkAddsNoDecodes) {
  auto store = FlowStore::open(*path_);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const FlowStore& s = **store;
  ASSERT_GT(s.chunk_count(), 3u);
  const auto walk = [&] {
    std::uint64_t rows = 0;
    s.for_each_chunk([&](const ChunkData& ch) { rows += ch.rows(); });
    for (std::size_t k = 0; k < s.src_chunk_count(); ++k) {
      rows += s.src_chunk(k)->rows();
    }
    return rows;
  };
  EXPECT_EQ(walk(), 2 * s.flow_count());
  const std::uint64_t decoded = s.chunks_decoded();
  EXPECT_EQ(decoded, s.chunk_count() + s.src_chunk_count());
  EXPECT_EQ(walk(), 2 * s.flow_count());
  EXPECT_EQ(s.chunks_decoded(), decoded);
}

TEST_F(FlowStoreCacheTest, LoadPathLeavesNothingResident) {
  auto store = FlowStore::open(*path_);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const FlowStore& s = **store;
  // try_decode is the load path's access: every check runs, nothing stays.
  ChunkData scratch;
  for (std::size_t k = 0; k < s.chunk_count(); ++k) {
    ASSERT_TRUE(s.try_decode(k, /*src=*/false, scratch).ok());
    EXPECT_EQ(scratch.rows(), s.dst_metas()[k].row_count);
  }
  EXPECT_EQ(s.chunks_decoded(), s.chunk_count());
  EXPECT_EQ(s.cache_bytes(), 0u);
  // Positive control: the cached accessor does keep the chunk resident.
  EXPECT_GT(s.chunk(0)->footprint_bytes(), 0u);
  EXPECT_EQ(s.cache_bytes(), s.chunk(0)->footprint_bytes());

  // Dataset::try_load decodes each dst and each src chunk exactly once and
  // never serves one from a cache.
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t decoded0 = reg.counter("store.chunk.decoded").value();
  const std::uint64_t hits0 = reg.counter("store.chunk.cache_hit").value();
  auto loaded = core::Dataset::try_load(*path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->flows().size(), s.flow_count());
  EXPECT_EQ(reg.counter("store.chunk.decoded").value() - decoded0,
            s.chunk_count() + s.src_chunk_count());
  EXPECT_EQ(reg.counter("store.chunk.cache_hit").value(), hits0);
}

}  // namespace
}  // namespace bw::store
