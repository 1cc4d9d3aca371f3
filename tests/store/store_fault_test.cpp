// Store-layer fault behaviour that the generic binary-fault matrix cannot
// pin down: corruption inside a specific chunk section must be reported
// *section-precisely* (naming the CHNK/SCHK family), lazily (at first
// touch, not at open), and a legacy v2 file must be refused with an error
// that tells the operator exactly which tool migrates it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/dataset.hpp"
#include "core/corpus.hpp"
#include "store/flow_store.hpp"
#include "util/container.hpp"

namespace bw::store {
namespace {

namespace fs = std::filesystem;
using bw::core::testutil::World;

class StoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("bw_store_fault_test." + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    World world;
    const net::Ipv4 victim(24, 0, 0, 1);
    bgp::UpdateLog control;
    control.push_back(world.platform->service().make_announce(
        util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    std::vector<flow::TrafficBurst> bursts;
    bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 1), victim,
                                 net::Proto::kUdp, 123, 4444,
                                 {util::kHour, 2 * util::kHour}, 200,
                                 world.acceptor));
    dataset_ = std::make_unique<core::Dataset>(
        world.run(std::move(control), bursts));

    clean_path_ = (dir_ / "clean.bwds").string();
    ::setenv("BW_STORE_CHUNK_ROWS", "32", 1);
    ASSERT_TRUE(dataset_->try_save(clean_path_).ok());
    ::unsetenv("BW_STORE_CHUNK_ROWS");
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// First TOC section with `id`, from the clean file.
  util::container::Section find_section(std::uint32_t id) {
    std::ifstream is(clean_path_, std::ios::binary);
    is.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(is.tellg());
    auto toc = util::container::read_toc(is, size);
    EXPECT_TRUE(toc.ok());
    const util::container::Section* found = toc->find(id);
    EXPECT_NE(found, nullptr);
    return *found;
  }

  /// Copy of the clean file with one payload byte of `section` flipped.
  std::string corrupt_copy(const util::container::Section& section) {
    const std::string path = (dir_ / "corrupt.bwds").string();
    std::string bytes;
    {
      std::ifstream is(clean_path_, std::ios::binary);
      std::ostringstream ss;
      ss << is.rdbuf();
      bytes = ss.str();
    }
    bytes[section.offset + section.length / 2] ^= 0x10;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
    return path;
  }

  fs::path dir_;
  std::unique_ptr<core::Dataset> dataset_;
  std::string clean_path_;
};

TEST_F(StoreFaultTest, CorruptDstChunkFailsAtTouchNamingTheSection) {
  const std::string path = corrupt_copy(find_section(kSecChunk));
  // Open validates only the frame metadata: the flipped payload byte is
  // not seen yet.
  auto store = FlowStore::open(path);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  // First touch of the damaged chunk reports it precisely.
  std::shared_ptr<const ChunkData> chunk;
  const util::Status s = (*store)->try_chunk(0, /*src=*/false, chunk);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.to_string().find("CHNK"), std::string::npos) << s.to_string();

  // A materializing load decodes every dst chunk, so it must fail too.
  const auto loaded = core::Dataset::try_load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().to_string().find("CHNK"), std::string::npos)
      << loaded.status().to_string();
}

TEST_F(StoreFaultTest, FailedDecodeIsNeverCached) {
  const std::string path = corrupt_copy(find_section(kSecChunk));
  auto store = FlowStore::open(path);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  std::shared_ptr<const ChunkData> first;
  std::shared_ptr<const ChunkData> second;
  const util::Status a = (*store)->try_chunk(0, /*src=*/false, first);
  const util::Status b = (*store)->try_chunk(0, /*src=*/false, second);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_NE(a.to_string().find("CHNK[0]"), std::string::npos) << a.to_string();
  // The second touch re-reads and re-verifies rather than finding a
  // poisoned (or empty) cache entry.
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(first, nullptr);
  EXPECT_EQ(second, nullptr);
  EXPECT_EQ((*store)->chunks_decoded(), 0u);
  EXPECT_EQ((*store)->cache_bytes(), 0u);
}

TEST_F(StoreFaultTest, CorruptSrcChunkIsStillCaughtByFullLoad) {
  const std::string path = corrupt_copy(find_section(kSecSrcChunk));
  // The materializing loader never decodes src chunks — it must verify
  // their checksums explicitly instead of shipping a silently damaged file.
  const auto loaded = core::Dataset::try_load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().to_string().find("SCHK"), std::string::npos)
      << loaded.status().to_string();
}

TEST_F(StoreFaultTest, CorruptChunkIndexFailsAtOpen) {
  const std::string path = corrupt_copy(find_section(kSecChunkIndex));
  const auto store = FlowStore::open(path);
  EXPECT_FALSE(store.ok());
  EXPECT_NE(store.status().to_string().find("CIDX"), std::string::npos)
      << store.status().to_string();
}

TEST_F(StoreFaultTest, V2FileIsRefusedNamingTheConverter) {
  const std::string v2_path = (dir_ / "legacy.bwds").string();
  ASSERT_TRUE(dataset_->try_save_v2(v2_path).ok());

  const auto loaded = core::Dataset::try_load(v2_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().to_string().find("bw-convert"), std::string::npos)
      << loaded.status().to_string();

  const auto chunked = core::Dataset::try_open_chunked(v2_path);
  ASSERT_FALSE(chunked.ok());
  EXPECT_NE(chunked.status().to_string().find("bw-convert"), std::string::npos)
      << chunked.status().to_string();

  // The v2 reader still accepts it (bw-convert's input path).
  EXPECT_TRUE(core::Dataset::try_load_v2(v2_path).ok());
}

TEST_F(StoreFaultTest, ChunkedDatasetScansSurviveCorruptionViaStatus) {
  const std::string path = corrupt_copy(find_section(kSecChunk));
  auto ds = core::Dataset::try_open_chunked(path);
  ASSERT_TRUE(ds.ok()) << ds.status().to_string();
  // The throwing accessor surfaces the corruption as an exception that the
  // guarded pipeline stages absorb into a degraded-stage report.
  EXPECT_THROW(ds->store()->chunk(0), std::runtime_error);
}

}  // namespace
}  // namespace bw::store
