// Chunk codec ground truth: every column survives an encode/decode
// round-trip bit-exactly, the zone-map metadata is faithful (no bloom
// false negatives, exact min/max bounds), and a corrupted or truncated
// payload is rejected with a column-precise error — never decoded into
// silently wrong rows and never read out of bounds (the ASan job runs
// this suite too).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "store/chunk.hpp"
#include "util/rng.hpp"

namespace bw::store {
namespace {

/// A deterministic dst-ordered chunk exercising every codec branch:
/// sorted dst_ip with repeats, non-monotonic times (zigzag deltas of both
/// signs), all four proto classes, kNoMember members, set and clear
/// dropped bits, and "random" orig_pos values.
ChunkData make_dst_chunk(util::Rng& rng, std::size_t rows) {
  ChunkData chunk;
  flow::FlowColumns& c = chunk.cols;
  std::uint32_t dst = 0x18000000;  // 24.0.0.0
  const std::uint8_t protos[] = {1, 6, 17, 47};
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.chance(0.4)) dst += static_cast<std::uint32_t>(rng.uniform_int(1, 70000));
    c.dst_ip.push_back(dst);
    c.time.push_back(rng.uniform_int(-5000, 5000000));
    c.src_ip.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30)));
    c.proto.push_back(protos[rng.uniform_int(0, 3)]);
    c.src_port.push_back(static_cast<std::uint16_t>(rng.uniform_int(0, 65535)));
    c.dst_port.push_back(static_cast<std::uint16_t>(rng.uniform_int(0, 65535)));
    c.packets.push_back(static_cast<std::uint32_t>(rng.uniform_int(1, 100000)));
    c.bytes.push_back(static_cast<std::uint64_t>(rng.uniform_int(40, 1 << 30)) *
                      1000);
    c.src_member.push_back(rng.chance(0.2)
                               ? flow::FlowColumns::kNoMember
                               : static_cast<std::uint32_t>(
                                     rng.uniform_int(0, 500)));
    chunk.cols.src_mac_id.push_back(
        static_cast<std::uint32_t>(rng.uniform_int(0, 40)));
    chunk.cols.dst_mac_id.push_back(
        static_cast<std::uint32_t>(rng.uniform_int(0, 40)));
    chunk.orig_pos.push_back(
        static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 24)));
  }
  c.dropped_words.assign((rows + 63) / 64, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.chance(0.3)) c.dropped_words[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  return chunk;
}

ChunkData make_src_chunk(util::Rng& rng, std::size_t rows) {
  ChunkData chunk;
  flow::FlowColumns& c = chunk.cols;
  std::uint32_t src = 0x40000000;  // 64.0.0.0
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.chance(0.5)) src += static_cast<std::uint32_t>(rng.uniform_int(1, 9000));
    c.s_src_ip.push_back(src);
    c.s_time.push_back(rng.uniform_int(-100, 4000000));
    c.s_src_port.push_back(static_cast<std::uint16_t>(rng.uniform_int(0, 65535)));
    c.s_dst_port.push_back(static_cast<std::uint16_t>(rng.uniform_int(0, 65535)));
  }
  return chunk;
}

TEST(ChunkCodec, DstRoundTripIsBitExact) {
  util::Rng rng(17);
  const ChunkData chunk = make_dst_chunk(rng, 403);  // odd: partial bitmap byte
  std::vector<std::uint8_t> buf;
  encode_dst_chunk(dst_rows(chunk), buf);

  ChunkData back;
  ASSERT_TRUE(decode_dst_chunk(buf.data(), buf.size(), back).ok());
  EXPECT_EQ(back.cols.dst_ip, chunk.cols.dst_ip);
  EXPECT_EQ(back.cols.time, chunk.cols.time);
  EXPECT_EQ(back.cols.src_ip, chunk.cols.src_ip);
  EXPECT_EQ(back.cols.proto, chunk.cols.proto);
  EXPECT_EQ(back.cols.src_port, chunk.cols.src_port);
  EXPECT_EQ(back.cols.dst_port, chunk.cols.dst_port);
  EXPECT_EQ(back.cols.packets, chunk.cols.packets);
  EXPECT_EQ(back.cols.bytes, chunk.cols.bytes);
  EXPECT_EQ(back.cols.src_member, chunk.cols.src_member);
  EXPECT_EQ(back.cols.dropped_words, chunk.cols.dropped_words);
  EXPECT_EQ(back.cols.src_mac_id, chunk.cols.src_mac_id);
  EXPECT_EQ(back.cols.dst_mac_id, chunk.cols.dst_mac_id);
  EXPECT_EQ(back.orig_pos, chunk.orig_pos);
}

TEST(ChunkCodec, SrcRoundTripIsBitExact) {
  util::Rng rng(23);
  const ChunkData chunk = make_src_chunk(rng, 257);
  std::vector<std::uint8_t> buf;
  encode_src_chunk(src_rows(chunk), buf);

  ChunkData back;
  ASSERT_TRUE(decode_src_chunk(buf.data(), buf.size(), back).ok());
  EXPECT_EQ(back.cols.s_src_ip, chunk.cols.s_src_ip);
  EXPECT_EQ(back.cols.s_time, chunk.cols.s_time);
  EXPECT_EQ(back.cols.s_src_port, chunk.cols.s_src_port);
  EXPECT_EQ(back.cols.s_dst_port, chunk.cols.s_dst_port);
}

TEST(ChunkCodec, EmptyChunkRoundTrips) {
  const ChunkData chunk;
  std::vector<std::uint8_t> buf;
  encode_dst_chunk(dst_rows(chunk), buf);
  ChunkData back;
  ASSERT_TRUE(decode_dst_chunk(buf.data(), buf.size(), back).ok());
  EXPECT_EQ(back.rows(), 0u);

  encode_src_chunk(src_rows(chunk), buf);
  ChunkData sback;
  ASSERT_TRUE(decode_src_chunk(buf.data(), buf.size(), sback).ok());
  EXPECT_EQ(sback.rows(), 0u);
}

TEST(ChunkCodec, DstMetaBoundsAreExactAndBloomHasNoFalseNegatives) {
  util::Rng rng(31);
  const ChunkData chunk = make_dst_chunk(rng, 500);
  const ChunkMeta m = make_dst_meta(dst_rows(chunk), 1000);

  EXPECT_EQ(m.row_begin, 1000u);
  EXPECT_EQ(m.row_count, 500u);
  EXPECT_EQ(m.min_ip, chunk.cols.dst_ip.front());
  EXPECT_EQ(m.max_ip, chunk.cols.dst_ip.back());
  util::TimeMs lo = chunk.cols.time[0];
  util::TimeMs hi = chunk.cols.time[0];
  for (const util::TimeMs t : chunk.cols.time) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_EQ(m.min_time, lo);
  EXPECT_EQ(m.max_time, hi);
  // ICMP + TCP + UDP + other are all present in the generated mix.
  EXPECT_EQ(m.proto_mask, 0xFu);
  // The contract pruning rests on: a /24 present in the chunk is never
  // reported absent.
  for (const std::uint32_t ip : chunk.cols.dst_ip) {
    EXPECT_TRUE(m.bloom.maybe(ip >> 8));
  }
  // And the filter is not degenerate: far-away keys are mostly rejected.
  std::size_t rejected = 0;
  for (std::uint32_t k = 0; k < 1000; ++k) {
    if (!m.bloom.maybe(0xC0000000u + k)) ++rejected;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ChunkCodec, MetaSerializationRoundTrips) {
  util::Rng rng(41);
  const ChunkMeta m = make_dst_meta(dst_rows(make_dst_chunk(rng, 77)), 4242);
  std::vector<std::uint8_t> buf;
  append_meta(buf, m);
  ASSERT_EQ(buf.size(), kChunkMetaBytes);
  const ChunkMeta back = parse_meta(buf.data());
  EXPECT_EQ(back.row_begin, m.row_begin);
  EXPECT_EQ(back.row_count, m.row_count);
  EXPECT_EQ(back.min_time, m.min_time);
  EXPECT_EQ(back.max_time, m.max_time);
  EXPECT_EQ(back.min_ip, m.min_ip);
  EXPECT_EQ(back.max_ip, m.max_ip);
  EXPECT_EQ(back.proto_mask, m.proto_mask);
  EXPECT_EQ(back.bloom.bits, m.bloom.bits);
}

// Every strict prefix of an encoded chunk must fail to decode: each column
// block is length-prefixed and each codec demands its block be consumed
// exactly, so truncation anywhere is structurally detectable even before
// the container CRC layer weighs in.
TEST(ChunkCodec, EveryTruncationIsRejected) {
  util::Rng rng(53);
  const ChunkData chunk = make_dst_chunk(rng, 48);
  std::vector<std::uint8_t> buf;
  encode_dst_chunk(dst_rows(chunk), buf);
  ASSERT_GT(buf.size(), 100u);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    ChunkData out;
    const util::Status s = decode_dst_chunk(buf.data(), len, out);
    EXPECT_FALSE(s.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(s.to_string().empty());
  }

  encode_src_chunk(src_rows(make_src_chunk(rng, 48)), buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    ChunkData out;
    EXPECT_FALSE(decode_src_chunk(buf.data(), len, out).ok())
        << "src prefix of " << len << " bytes decoded";
  }
}

// Bit flips may or may not be structurally detectable at the codec layer
// (value bytes decode to different values; the CRC layer above catches
// those). What the codec must guarantee under arbitrary corruption is
// memory safety and internal consistency: no crash, no out-of-bounds read,
// and on an ok decode every column has exactly `rows()` entries.
TEST(ChunkCodec, BitFlipsNeverCrashAndStayConsistent) {
  util::Rng rng(67);
  const ChunkData chunk = make_dst_chunk(rng, 96);
  std::vector<std::uint8_t> clean;
  encode_dst_chunk(dst_rows(chunk), clean);
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng flip(seed);
    std::vector<std::uint8_t> buf = clean;
    const std::size_t byte = static_cast<std::size_t>(
        flip.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1));
    buf[byte] ^= static_cast<std::uint8_t>(1u << flip.uniform_int(0, 7));

    ChunkData out;
    const util::Status s = decode_dst_chunk(buf.data(), buf.size(), out);
    if (!s.ok()) continue;  // detected — fine
    const std::size_t rows = out.rows();
    EXPECT_EQ(out.cols.dst_ip.size(), rows);
    EXPECT_EQ(out.cols.src_ip.size(), rows);
    EXPECT_EQ(out.cols.proto.size(), rows);
    EXPECT_EQ(out.cols.packets.size(), rows);
    EXPECT_EQ(out.cols.src_mac_id.size(), rows);
    EXPECT_EQ(out.orig_pos.size(), rows);
    EXPECT_EQ(out.cols.dropped_words.size(), (rows + 63) / 64);
  }
}

}  // namespace
}  // namespace bw::store
