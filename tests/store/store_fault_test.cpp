// Store-layer fault behaviour that the generic binary-fault matrix cannot
// pin down: corruption inside a specific chunk section must be reported
// *section-precisely* (naming the CHNK/SCHK family), lazily (at first
// touch, not at open), and a legacy or unknown-version header must be
// refused by every entry point with an error naming the version.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

  /// Copy of the clean file with its 16-byte header replaced: every byte
  /// after the header is still a valid v3 body, so only the header check
  /// can refuse it.
  std::string header_copy(const char* magic, std::uint32_t version) {
    const std::string path = (dir_ / "header.bwds").string();
    std::string bytes;
    {
      std::ifstream is(clean_path_, std::ios::binary);
      std::ostringstream ss;
      ss << is.rdbuf();
      bytes = ss.str();
    }
    bytes.replace(0, 8, magic, 8);
    bytes.replace(8, 4, reinterpret_cast<const char*>(&version), 4);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
    return path;
  }

  /// Payload of dst (or src) chunk `k` of the clean file, decoded, changed
  /// by `edit` and encoded again.
  std::vector<std::uint8_t> edited_chunk(
      bool src, std::size_t k, const std::function<void(ChunkData&)>& edit) {
    auto store = FlowStore::open(clean_path_);
    EXPECT_TRUE(store.ok()) << store.status().to_string();
    ChunkData chunk;
    EXPECT_TRUE((*store)->try_decode(k, src, chunk).ok());
    edit(chunk);
    std::vector<std::uint8_t> payload;
    if (src) {
      encode_src_chunk(chunk, payload);
    } else {
      encode_dst_chunk(chunk, payload);
    }
    return payload;
  }

  /// Copy of the clean file with some chunk payloads replaced, keyed by
  /// (src family?, chunk index). The container is written afresh, so every
  /// section CRC in the copy is valid: only the load's structural checks
  /// can catch what the replacement breaks.
  std::string rewritten_copy(
      const std::map<std::pair<bool, std::size_t>, std::vector<std::uint8_t>>&
          payloads) {
    std::string bytes;
    {
      std::ifstream is(clean_path_, std::ios::binary);
      std::ostringstream ss;
      ss << is.rdbuf();
      bytes = ss.str();
    }
    std::istringstream is(bytes);
    const auto toc = util::container::read_toc(is, bytes.size());
    EXPECT_TRUE(toc.ok());
    const std::string path = (dir_ / "rewritten.bwds").string();
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    util::container::Writer w(os);
    std::size_t dst_k = 0;
    std::size_t src_k = 0;
    for (const util::container::Section& sec : toc->sections) {
      w.begin_section(sec.id);
      const auto it =
          sec.id == kSecChunk      ? payloads.find({false, dst_k++})
          : sec.id == kSecSrcChunk ? payloads.find({true, src_k++})
                                   : payloads.end();
      if (it != payloads.end()) {
        w.write(it->second.data(), it->second.size());
      } else {
        w.write(bytes.data() + sec.offset, sec.length);
      }
      w.end_section();
    }
    EXPECT_TRUE(w.finish().ok());
    return path;
  }

  /// try_load of `path` must fail with data_loss naming `section` and
  /// saying `what`.
  static void expect_load_fails(const std::string& path, const char* section,
                                const char* what) {
    const auto loaded = core::Dataset::try_load(path);
    ASSERT_FALSE(loaded.ok());
    const std::string msg = loaded.status().to_string();
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss) << msg;
    EXPECT_NE(msg.find(section), std::string::npos) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }

  fs::path dir_;
  std::unique_ptr<core::Dataset> dataset_;
  std::string clean_path_;
};

/// Swap rows `i` and `j` of a decoded dst chunk, every column together.
void swap_dst_rows(ChunkData& chunk, std::size_t i, std::size_t j) {
  flow::FlowColumns& c = chunk.cols;
  const bool dropped_i = c.dropped(i);
  const bool dropped_j = c.dropped(j);
  std::swap(c.time[i], c.time[j]);
  std::swap(c.src_ip[i], c.src_ip[j]);
  std::swap(c.dst_ip[i], c.dst_ip[j]);
  std::swap(c.proto[i], c.proto[j]);
  std::swap(c.src_port[i], c.src_port[j]);
  std::swap(c.dst_port[i], c.dst_port[j]);
  std::swap(c.packets[i], c.packets[j]);
  std::swap(c.bytes[i], c.bytes[j]);
  std::swap(c.src_member[i], c.src_member[j]);
  std::swap(chunk.src_mac_id[i], chunk.src_mac_id[j]);
  std::swap(chunk.dst_mac_id[i], chunk.dst_mac_id[j]);
  std::swap(chunk.orig_pos[i], chunk.orig_pos[j]);
  const auto set = [&](std::size_t row, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (row & 63);
    c.dropped_words[row >> 6] =
        on ? c.dropped_words[row >> 6] | bit : c.dropped_words[row >> 6] & ~bit;
  };
  set(i, dropped_j);
  set(j, dropped_i);
}

/// Swap rows `i` and `j` of a decoded src chunk.
void swap_src_rows(ChunkData& chunk, std::size_t i, std::size_t j) {
  flow::FlowColumns& c = chunk.cols;
  std::swap(c.s_src_ip[i], c.s_src_ip[j]);
  std::swap(c.s_time[i], c.s_time[j]);
  std::swap(c.s_src_port[i], c.s_src_port[j]);
  std::swap(c.s_dst_port[i], c.s_dst_port[j]);
}

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

struct HeaderCase {
  const char* magic;  ///< the 8 magic bytes
  std::uint32_t version;  ///< the u32 after them
  const char* named;  ///< what the error must name
};

// Without this, gtest prints the case as raw bytes, pointers included, and
// the discovered ctest name changes with every run's address layout.
void PrintTo(const HeaderCase& c, std::ostream* os) {
  *os << c.magic << " v" << c.version;
}

class StoreHeaderTest : public StoreFaultTest,
                        public ::testing::WithParamInterface<HeaderCase> {};

TEST_P(StoreHeaderTest, RefusedByEveryEntryPoint) {
  const HeaderCase& c = GetParam();
  const std::string path = header_copy(c.magic, c.version);

  const auto expect_refused = [&](const util::Status& st) {
    EXPECT_EQ(st.code(), util::StatusCode::kDataLoss) << st.to_string();
    EXPECT_NE(st.to_string().find(c.named), std::string::npos)
        << st.to_string();
  };
  const auto loaded = core::Dataset::try_load(path);
  ASSERT_FALSE(loaded.ok());
  expect_refused(loaded.status());
  const auto chunked = core::Dataset::try_open_chunked(path);
  ASSERT_FALSE(chunked.ok());
  expect_refused(chunked.status());
  const auto store = FlowStore::open(path);
  ASSERT_FALSE(store.ok());
  expect_refused(store.status());
}

INSTANTIATE_TEST_SUITE_P(
    Headers, StoreHeaderTest,
    ::testing::Values(HeaderCase{"bwds0001", 1, "legacy v1 file (bwds0001)"},
                      HeaderCase{"bwds0002", 2, "legacy v2 file (bwds0002)"},
                      HeaderCase{"bwds0003", 7, "unsupported version 7"}),
    [](const ::testing::TestParamInfo<HeaderCase>& param_info) {
      return std::string(param_info.param.magic) + "_v" +
             std::to_string(param_info.param.version);
    });

TEST_F(StoreFaultTest, V2FileIsRefusedNamingTheConverter) {
  // A v2 file cannot be converted in place any more: the refusal must name
  // the tool that rebuilds the corpus instead.
  const std::string v2_path = header_copy("bwds0002", 2);

  const auto loaded = core::Dataset::try_load(v2_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().to_string().find("bw-generate"), std::string::npos)
      << loaded.status().to_string();

  const auto chunked = core::Dataset::try_open_chunked(v2_path);
  ASSERT_FALSE(chunked.ok());
  EXPECT_NE(chunked.status().to_string().find("bw-generate"),
            std::string::npos)
      << chunked.status().to_string();
}

// The checks below stand in for the sorts a materializing load no longer
// runs. Each file passes every CRC; only the structural check can refuse it.

TEST_F(StoreFaultTest, RewrittenCopyOfAnUnchangedChunkStillLoads) {
  // Control for the rewrite helper: re-encoding without an edit is valid.
  const std::string path = rewritten_copy(
      {{{false, 1}, edited_chunk(false, 1, [](ChunkData&) {})},
       {{true, 1}, edited_chunk(true, 1, [](ChunkData&) {})}});
  const auto loaded = core::Dataset::try_load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->flows().size(), dataset_->flows().size());
}

TEST_F(StoreFaultTest, DuplicateRowPositionFailsLoad) {
  ChunkData first;
  {
    auto store = FlowStore::open(clean_path_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->try_decode(0, /*src=*/false, first).ok());
  }
  // Row 0 of CHNK[1] claims the position row 0 of CHNK[0] already holds.
  const std::string path = rewritten_copy(
      {{{false, 1}, edited_chunk(false, 1, [&](ChunkData& c) {
          c.orig_pos[0] = first.orig_pos[0];
        })}});
  expect_load_fails(path, "CHNK", "duplicate or out-of-range row position");
}

TEST_F(StoreFaultTest, OutOfRangeRowPositionFailsLoad) {
  const std::string path = rewritten_copy(
      {{{false, 2}, edited_chunk(false, 2, [&](ChunkData& c) {
          c.orig_pos[3] = static_cast<std::uint32_t>(dataset_->flows().size());
        })}});
  expect_load_fails(path, "CHNK[2]", "duplicate or out-of-range row position");
}

TEST_F(StoreFaultTest, MacIdOutsideTheDictionaryFailsLoad) {
  const std::string path = rewritten_copy(
      {{{false, 1}, edited_chunk(false, 1, [](ChunkData& c) {
          c.src_mac_id[4] = 1000;  // the clean file's dictionary is tiny
        })}});
  expect_load_fails(path, "CHNK[1]", "MAC id outside the dictionary");
}

TEST_F(StoreFaultTest, DstRowsOutOfOrderFailLoad) {
  // Two interior rows swapped: the chunk edges still line up, so only the
  // in-chunk order check sees it.
  const std::string path = rewritten_copy(
      {{{false, 1}, edited_chunk(false, 1, [](ChunkData& c) {
          ASSERT_NE(c.cols.time[3], c.cols.time[4]);
          swap_dst_rows(c, 3, 4);
        })}});
  expect_load_fails(path, "CHNK[1]",
                    "rows are not in (dst_ip, time, position) order");
}

TEST_F(StoreFaultTest, DstChunksOutOfOrderFailLoad) {
  // Two internally sorted chunks swapped: only the boundary check sees it.
  const std::string path = rewritten_copy(
      {{{false, 0}, edited_chunk(false, 1, [](ChunkData&) {})},
       {{false, 1}, edited_chunk(false, 0, [](ChunkData&) {})}});
  expect_load_fails(path, "CHNK[1]", "across the chunk boundary");
}

TEST_F(StoreFaultTest, RowPositionsOutOfTimeOrderFailLoad) {
  // Swap the positions of two rows with different times: the dst order
  // still holds, but the rebuilt flow log is no longer time-sorted.
  const std::string path = rewritten_copy(
      {{{false, 1}, edited_chunk(false, 1, [](ChunkData& c) {
          ASSERT_NE(c.cols.time[3], c.cols.time[4]);
          std::swap(c.orig_pos[3], c.orig_pos[4]);
        })}});
  expect_load_fails(path, "CHNK", "time order");
}

TEST_F(StoreFaultTest, SrcRowsOutOfOrderFailLoad) {
  const std::string path = rewritten_copy(
      {{{true, 1}, edited_chunk(true, 1, [](ChunkData& c) {
          ASSERT_NE(c.cols.s_time[3], c.cols.s_time[4]);
          swap_src_rows(c, 3, 4);
        })}});
  expect_load_fails(path, "SCHK[1]", "rows are not in (src_ip, time) order");
}

TEST_F(StoreFaultTest, SrcChunksOutOfOrderFailLoad) {
  const std::string path = rewritten_copy(
      {{{true, 0}, edited_chunk(true, 1, [](ChunkData&) {})},
       {{true, 1}, edited_chunk(true, 0, [](ChunkData&) {})}});
  expect_load_fails(path, "SCHK[1]", "across the chunk boundary");
}

TEST_F(StoreFaultTest, SrcRowsThatAreNotThePermutationFailLoad) {
  // Sorted, the right row count, a valid CRC — but one row's port no
  // longer matches any CHNK row.
  const std::string path = rewritten_copy(
      {{{true, 2}, edited_chunk(true, 2, [](ChunkData& c) {
          c.cols.s_dst_port[5] ^= 0x0100;
        })}});
  expect_load_fails(path, "SCHK", "not the source-ordered permutation");
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
