// One .bwds v3 column chunk: encode, decode, and the zone-map metadata
// that makes predicate pushdown possible.
//
// A v3 file stores flows twice, mirroring the two FlowColumns orders:
//   CHNK  dst-ordered chunks (row k of the whole sequence is dst row k)
//   SCHK  src-ordered chunks (row k is s_* row k)
// Each chunk is one container section, so the per-section CRC32C gives
// chunk-precise corruption errors for free. Alongside the payloads, the
// CIDX/SIDX sections carry one fixed-width ChunkMeta per chunk: row range,
// min/max time, min/max of the sorted address column, a protocol presence
// mask, and (dst chunks only) a 256-bit bloom filter over the dst /24s in
// the chunk. Scans test a (prefix, time-range) predicate against the metas
// first and never touch — never even decode — chunks that cannot match.
//
// Pruning is *exact* with respect to the scanned-row contract of
// FlowColumns::for_each_dst_row (see flow_store.hpp): a pruned chunk is one
// whose resolved row range would have been empty anyway, so per-event
// scan-row counters and all visit orders are identical to the in-RAM path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "flow/columns.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace bw::store {

/// 256-bit bloom filter, two probes per key. Keys are dst /24 values
/// (dst_ip >> 8). With <= 256K rows a chunk holds at most a few thousand
/// distinct /24s in practice; the filter only has to be cheap and have no
/// false negatives — a small false-positive rate merely decodes a chunk
/// whose binary search then finds an empty range.
struct Bloom256 {
  std::array<std::uint8_t, 32> bits{};

  static std::uint64_t mix(std::uint32_t key) {
    std::uint64_t h = (static_cast<std::uint64_t>(key) + 1) *
                      0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return h;
  }

  void add(std::uint32_t key) {
    const std::uint64_t h = mix(key);
    const unsigned b1 = static_cast<unsigned>(h & 0xFF);
    const unsigned b2 = static_cast<unsigned>((h >> 8) & 0xFF);
    bits[b1 >> 3] |= static_cast<std::uint8_t>(1u << (b1 & 7));
    bits[b2 >> 3] |= static_cast<std::uint8_t>(1u << (b2 & 7));
  }

  [[nodiscard]] bool maybe(std::uint32_t key) const {
    const std::uint64_t h = mix(key);
    const unsigned b1 = static_cast<unsigned>(h & 0xFF);
    const unsigned b2 = static_cast<unsigned>((h >> 8) & 0xFF);
    return ((bits[b1 >> 3] >> (b1 & 7)) & 1u) != 0 &&
           ((bits[b2 >> 3] >> (b2 & 7)) & 1u) != 0;
  }
};

/// Map a wire protocol number to its presence bit (kIcmp/kTcp/kUdp/other).
[[nodiscard]] constexpr std::uint32_t proto_bit(std::uint8_t proto) noexcept {
  return proto == 1 ? 1u : proto == 6 ? 2u : proto == 17 ? 4u : 8u;
}

/// Fixed-width zone-map entry, one per chunk, serialized into CIDX/SIDX.
struct ChunkMeta {
  std::uint64_t row_begin{0};  ///< global row index of the chunk's first row
  std::uint32_t row_count{0};
  util::TimeMs min_time{0};
  util::TimeMs max_time{0};
  std::uint32_t min_ip{0};  ///< sorted column: dst_ip (CHNK) / src_ip (SCHK)
  std::uint32_t max_ip{0};
  std::uint32_t proto_mask{0};  ///< OR of proto_bit() over the chunk
  Bloom256 bloom;               ///< dst /24 keys; all-zero in SIDX entries
};

inline constexpr std::size_t kChunkMetaBytes = 72;

void append_meta(std::vector<std::uint8_t>& out, const ChunkMeta& meta);
[[nodiscard]] ChunkMeta parse_meta(const std::uint8_t* p);

/// A decoded chunk. For dst chunks the dst-side FlowColumns fields are
/// populated, MAC ids included, plus the time position of every row (the
/// inverse of a materialized Dataset's time order); for src chunks only
/// the cols.s_* fields are populated.
struct ChunkData {
  flow::FlowColumns cols;
  std::vector<std::uint32_t> orig_pos;

  [[nodiscard]] std::size_t rows() const noexcept {
    return cols.time.empty() ? cols.s_time.size() : cols.time.size();
  }
  /// Heap bytes held by the column vectors (capacity, not size).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;
};

/// Where one dst chunk decodes to: caller-owned spans of exactly the
/// chunk's row count, e.g. the chunk's row slice of a whole-corpus
/// FlowColumns. The field names mirror FlowColumns, so code templated on
/// the column source reads either. `src_member` and `dropped_words` may be
/// empty: their blocks are then validated but not stored (a materializing
/// load derives both from the MAC ids). A non-empty `dropped_words` holds
/// (rows + 63) / 64 words with row 0 at bit 0 of word 0.
struct DstChunkSpans {
  std::span<util::TimeMs> time;
  std::span<std::uint32_t> src_ip;
  std::span<std::uint32_t> dst_ip;
  std::span<std::uint8_t> proto;
  std::span<std::uint16_t> src_port;
  std::span<std::uint16_t> dst_port;
  std::span<std::uint32_t> packets;
  std::span<std::uint64_t> bytes;
  std::span<std::uint32_t> src_mac_id;
  std::span<std::uint32_t> dst_mac_id;
  std::span<std::uint32_t> src_member;
  std::span<std::uint64_t> dropped_words;
  std::span<std::uint32_t> orig_pos;

  [[nodiscard]] std::size_t rows() const noexcept { return time.size(); }
};

/// Where one src chunk decodes to (the four s_* columns).
struct SrcChunkSpans {
  std::span<std::uint32_t> s_src_ip;
  std::span<util::TimeMs> s_time;
  std::span<std::uint16_t> s_src_port;
  std::span<std::uint16_t> s_dst_port;

  [[nodiscard]] std::size_t rows() const noexcept { return s_time.size(); }
};

/// Size `chunk`'s dst (or src) vectors to `rows` and return spans over
/// them — how the ChunkData entry points reuse the span decoders.
[[nodiscard]] DstChunkSpans dst_spans(ChunkData& chunk, std::size_t rows);
[[nodiscard]] SrcChunkSpans src_spans(ChunkData& chunk, std::size_t rows);

/// What one dst chunk encodes from: read-only spans of exactly the chunk's
/// row count, e.g. a row slice of a whole-corpus FlowColumns plus the
/// caller's time positions of those rows, so an encoder reads the columns
/// in place. Row g's dropped flag is bit `dropped_bit0 + g` of
/// `dropped_words` (row 0 of a corpus at bit 0 of word 0).
struct DstChunkRows {
  std::span<const util::TimeMs> time;
  std::span<const std::uint32_t> src_ip;
  std::span<const std::uint32_t> dst_ip;
  std::span<const std::uint8_t> proto;
  std::span<const std::uint16_t> src_port;
  std::span<const std::uint16_t> dst_port;
  std::span<const std::uint32_t> packets;
  std::span<const std::uint64_t> bytes;
  std::span<const std::uint32_t> src_mac_id;
  std::span<const std::uint32_t> dst_mac_id;
  std::span<const std::uint32_t> src_member;
  std::span<const std::uint64_t> dropped_words;
  std::size_t dropped_bit0{0};
  std::span<const std::uint32_t> orig_pos;

  [[nodiscard]] std::size_t rows() const noexcept { return time.size(); }
  [[nodiscard]] bool dropped(std::size_t g) const noexcept {
    const std::size_t bit = dropped_bit0 + g;
    return ((dropped_words[bit >> 6] >> (bit & 63)) & 1u) != 0;
  }
};

/// What one src chunk encodes from (the four s_* columns).
struct SrcChunkRows {
  std::span<const std::uint32_t> s_src_ip;
  std::span<const util::TimeMs> s_time;
  std::span<const std::uint16_t> s_src_port;
  std::span<const std::uint16_t> s_dst_port;

  [[nodiscard]] std::size_t rows() const noexcept { return s_time.size(); }
};

/// The encoder's view of rows [begin, begin + rows) of `cols`. The dst
/// side leaves `orig_pos` empty for the caller to point at the rows' time
/// positions.
[[nodiscard]] DstChunkRows dst_rows(const flow::FlowColumns& cols,
                                    std::size_t begin, std::size_t rows);
[[nodiscard]] SrcChunkRows src_rows(const flow::FlowColumns& cols,
                                    std::size_t begin, std::size_t rows);
/// The encoder's view of a decoded (or hand-built) chunk.
[[nodiscard]] DstChunkRows dst_rows(const ChunkData& chunk);
[[nodiscard]] SrcChunkRows src_rows(const ChunkData& chunk);

/// Serialize one dst-ordered chunk (13 length-prefixed column blocks:
/// delta-varint dst_ip, zigzag-delta time, varint src_ip/ports/packets/
/// bytes/mac-ids/member, raw proto bytes, packed dropped bitmap, raw
/// orig_pos). `out` is cleared first; reuse the buffer across chunks.
void encode_dst_chunk(const DstChunkRows& rows, std::vector<std::uint8_t>& out);
/// The most bytes encode_dst_chunk can write for `rows` rows (every varint
/// at its widest); a src chunk of as many rows is smaller. A buffer that
/// reserves it never reallocates while a chunk encodes into it.
[[nodiscard]] std::size_t max_dst_chunk_bytes(std::size_t rows);
/// Decode into `out`, whose row count must equal the header's.
[[nodiscard]] util::Status decode_dst_chunk(const std::uint8_t* p,
                                            std::size_t len,
                                            const DstChunkSpans& out);
/// Decode into `out`, sized by the header (capacity is reused).
[[nodiscard]] util::Status decode_dst_chunk(const std::uint8_t* p,
                                            std::size_t len, ChunkData& out);

/// Serialize one src-ordered chunk (4 blocks: delta-varint src_ip,
/// zigzag-delta time, varint ports).
void encode_src_chunk(const SrcChunkRows& rows, std::vector<std::uint8_t>& out);
[[nodiscard]] util::Status decode_src_chunk(const std::uint8_t* p,
                                            std::size_t len,
                                            const SrcChunkSpans& out);
[[nodiscard]] util::Status decode_src_chunk(const std::uint8_t* p,
                                            std::size_t len, ChunkData& out);

/// Zone maps + bloom for a dst (sorted by dst_ip) / src (sorted by s_src_ip)
/// chunk.
[[nodiscard]] ChunkMeta make_dst_meta(const DstChunkRows& rows,
                                      std::uint64_t row_begin);
[[nodiscard]] ChunkMeta make_src_meta(const SrcChunkRows& rows,
                                      std::uint64_t row_begin);

}  // namespace bw::store
