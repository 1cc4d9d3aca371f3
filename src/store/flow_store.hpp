// Out-of-core access to a .bwds v3 flow store.
//
// FlowStore::open reads and validates only the frame metadata (TOC, zone
// maps, MAC dictionary, store meta) — a few hundred KB regardless of corpus
// size. Chunk payloads are fetched lazily through a ChunkSource that either
// mmaps the file read-only or pread()s the requested window (one
// abstraction, selected at open; BW_STORE_NO_MMAP=1 forces the streaming
// path). Each fetched chunk is CRC32C-verified against its TOC entry before
// decoding, so corruption is reported chunk-precisely at first touch rather
// than at open.
//
// Scans (`scan_dst`, run iteration, whole-corpus chunk walks) resolve the
// (prefix, time-range) predicate against the per-chunk zone maps and the
// dst-/24 bloom filter first and skip chunks that cannot contain a matching
// row. The pruning rules are chosen so that the *scanned-row count* and the
// *visit order* are exactly those of the in-RAM FlowColumns path:
//   - dst/src range prune: a skipped chunk's binary-search range is empty.
//   - bloom prune (prefixes /24 and longer share a single /24 key): no
//     false negatives, so a filtered chunk has an empty range too.
//   - time prune (host /32 predicates only, where the in-RAM path also
//     narrows by time before counting): chunk time bounds cannot overlap
//     the window, so the narrowed run is empty.
// Consequently reports and kernel scan counters are byte-identical across
// the in-RAM and out-of-core modes at any thread count.
//
// Decoded chunks live in one cache per open store, shared by every thread
// and bounded by kChunkCacheBudgetBytes. A miss decodes single-flight (a
// per-chunk mutex, so concurrent misses on one chunk decode it once); an
// insert over budget evicts the least-recently-used other chunks, and a
// visitor's shared_ptr keeps an evicted chunk alive until it is done. Peak
// cache memory is O(budget), independent of the thread count. Failed
// decodes are never cached: the next touch re-reads and re-reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flow/record.hpp"
#include "net/prefix.hpp"
#include "store/chunk.hpp"
#include "util/container.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace bw::store {

// --- flow section ids (the PERI/CTRL/MACS/ORIG control-plane tables are
// core/dataset's) ---
inline constexpr std::uint32_t kSecMacDict =
    util::container::section_id('M', 'D', 'I', 'C');
inline constexpr std::uint32_t kSecStoreMeta =
    util::container::section_id('S', 'M', 'E', 'T');
inline constexpr std::uint32_t kSecChunk =
    util::container::section_id('C', 'H', 'N', 'K');
inline constexpr std::uint32_t kSecChunkIndex =
    util::container::section_id('C', 'I', 'D', 'X');
inline constexpr std::uint32_t kSecSrcChunk =
    util::container::section_id('S', 'C', 'H', 'K');
inline constexpr std::uint32_t kSecSrcIndex =
    util::container::section_id('S', 'I', 'D', 'X');

/// Rows per chunk for newly written stores: BW_STORE_CHUNK_ROWS (clamped to
/// [16, 4Mi]; tiny values exist for multi-chunk tests), default 128Ki.
[[nodiscard]] std::size_t chunk_rows();

/// Byte budget of one store's decoded-chunk cache. A default 128Ki-row
/// chunk decodes to ~6.4 MB (dst, 49 B/row) or ~2.1 MB (src, 16 B/row), so
/// the budget holds about seven dst chunks plus their src projections.
inline constexpr std::size_t kChunkCacheBudgetBytes = std::size_t{64} << 20;

/// Read-only byte access to one file: mmap when available (and not
/// disabled), pread into a caller scratch buffer otherwise.
class ChunkSource {
 public:
  ChunkSource() = default;
  ChunkSource(const ChunkSource&) = delete;
  ChunkSource& operator=(const ChunkSource&) = delete;
  ChunkSource(ChunkSource&& other) noexcept { *this = std::move(other); }
  ChunkSource& operator=(ChunkSource&& other) noexcept;
  ~ChunkSource();

  [[nodiscard]] static util::Result<ChunkSource> open(const std::string& path);

  /// A pointer to `length` bytes at `offset` — into the mapping, or into
  /// `scratch` after a pread. Returns nullptr on I/O failure or bounds.
  [[nodiscard]] const std::uint8_t* fetch(
      std::uint64_t offset, std::uint64_t length,
      std::vector<std::uint8_t>& scratch) const;

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool mapped() const noexcept { return map_ != nullptr; }

 private:
  int fd_{-1};
  const std::uint8_t* map_{nullptr};
  std::uint64_t size_{0};
};

class FlowStore : public std::enable_shared_from_this<FlowStore> {
 public:
  /// Validate the frame and load the metadata sections (CIDX/SIDX/MDIC/
  /// SMET); chunk payloads stay on disk.
  [[nodiscard]] static util::Result<std::shared_ptr<const FlowStore>> open(
      const std::string& path);

  [[nodiscard]] std::uint64_t flow_count() const noexcept {
    return flow_count_;
  }
  [[nodiscard]] std::uint64_t unknown_mac_flows() const noexcept {
    return unknown_mac_flows_;
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return dst_metas_.size();
  }
  [[nodiscard]] std::size_t src_chunk_count() const noexcept {
    return src_metas_.size();
  }
  [[nodiscard]] const std::vector<ChunkMeta>& dst_metas() const noexcept {
    return dst_metas_;
  }
  [[nodiscard]] const std::vector<ChunkMeta>& src_metas() const noexcept {
    return src_metas_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& mac_dict() const noexcept {
    return mac_dict_;
  }
  [[nodiscard]] bool mapped() const noexcept { return source_.mapped(); }

  /// Fetch one chunk from the shared cache, decoding it on a miss. Throws
  /// std::runtime_error on corruption — scans run inside guarded pipeline
  /// stages, which turn this into a degraded-stage report.
  [[nodiscard]] std::shared_ptr<const ChunkData> chunk(std::size_t k) const;
  [[nodiscard]] std::shared_ptr<const ChunkData> src_chunk(
      std::size_t k) const;

  /// Non-throwing cached fetch. An error names the section (`CHNK[k]` /
  /// `SCHK[k]`) and leaves the cache untouched.
  [[nodiscard]] util::Status try_chunk(
      std::size_t k, bool src, std::shared_ptr<const ChunkData>& out) const;

  /// Decode dst (src) chunk `k` without touching the cache, straight into
  /// caller spans of exactly its row count — a materializing load points
  /// them at the chunk's row slice of the final columns. The CRC,
  /// row-count and MAC-id checks all run.
  [[nodiscard]] util::Status try_decode(std::size_t k,
                                        const DstChunkSpans& out) const;
  [[nodiscard]] util::Status try_decode(std::size_t k,
                                        const SrcChunkSpans& out) const;
  /// The same decode into `out`'s own vectors, reusing their capacity.
  [[nodiscard]] util::Status try_decode(std::size_t k, bool src,
                                        ChunkData& out) const;

  /// Reassemble the AoS record of dst-chunk row `i` (MAC ids resolved
  /// through the dictionary).
  [[nodiscard]] flow::FlowRecord record_at(const ChunkData& chunk,
                                           std::size_t i) const {
    return make_record(chunk.cols, chunk.src_mac_id[i], chunk.dst_mac_id[i],
                       i);
  }
  [[nodiscard]] flow::FlowRecord record_at(const DstChunkSpans& chunk,
                                           std::size_t i) const {
    return make_record(chunk, chunk.src_mac_id[i], chunk.dst_mac_id[i], i);
  }

  /// Pruned scan over rows destined to `prefix` within `range`, visiting
  /// chunks in dst order — the exact row order and scanned-row count of
  /// FlowColumns::for_each_dst_row. `fn(chunk, i)` gets chunk-local rows.
  template <typename Fn>
  std::uint64_t scan_dst(const net::Prefix& prefix, util::TimeRange range,
                         Fn&& fn) const {
    const std::uint32_t lo = prefix.network().value();
    const std::uint32_t hi = prefix.address_at(prefix.size() - 1).value();
    const bool host = prefix.length() == 32;
    const bool one24 = prefix.length() >= 24;
    const std::uint32_t key24 = lo >> 8;
    std::uint64_t rows = 0;
    for (std::size_t k = 0; k < dst_metas_.size(); ++k) {
      const ChunkMeta& m = dst_metas_[k];
      if (m.row_count == 0 || m.max_ip < lo) continue;
      if (m.min_ip > hi) break;  // chunks are sorted by dst
      if ((one24 && !m.bloom.maybe(key24)) ||
          (host &&
           (m.max_time < range.begin || m.min_time >= range.end))) {
        chunks_pruned_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::shared_ptr<const ChunkData> ch = chunk(k);
      const flow::FlowColumns::DstScan s = ch->cols.resolve_dst(prefix, range);
      rows += s.rows();
      if (!s.time_filtered) {
        for (std::size_t i = s.begin; i < s.end; ++i) fn(*ch, i);
      } else {
        for (std::size_t i = s.begin; i < s.end; ++i) {
          if (range.contains(ch->cols.time[i])) fn(*ch, i);
        }
      }
    }
    return rows;
  }

  /// Full-period run of rows destined to one address (port_stats).
  template <typename Fn>
  std::uint64_t scan_dst_run(net::Ipv4 addr, Fn&& fn) const {
    const std::uint32_t ip = addr.value();
    const std::uint32_t key24 = ip >> 8;
    std::uint64_t rows = 0;
    for (std::size_t k = 0; k < dst_metas_.size(); ++k) {
      const ChunkMeta& m = dst_metas_[k];
      if (m.row_count == 0 || m.max_ip < ip) continue;
      if (m.min_ip > ip) break;
      if (!m.bloom.maybe(key24)) {
        chunks_pruned_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::shared_ptr<const ChunkData> ch = chunk(k);
      const flow::FlowColumns::Range r = ch->cols.dst_run(addr);
      rows += r.size();
      for (std::size_t i = r.begin; i < r.end; ++i) fn(*ch, i);
    }
    return rows;
  }

  /// Full-period run of rows sourced from one address, over the
  /// src-ordered chunks (cols.s_* columns).
  template <typename Fn>
  std::uint64_t scan_src_run(net::Ipv4 addr, Fn&& fn) const {
    const std::uint32_t ip = addr.value();
    std::uint64_t rows = 0;
    for (std::size_t k = 0; k < src_metas_.size(); ++k) {
      const ChunkMeta& m = src_metas_[k];
      if (m.row_count == 0 || m.max_ip < ip) continue;
      if (m.min_ip > ip) break;
      const std::shared_ptr<const ChunkData> ch = src_chunk(k);
      const flow::FlowColumns::Range r = ch->cols.src_run(addr);
      rows += r.size();
      for (std::size_t i = r.begin; i < r.end; ++i) fn(*ch, i);
    }
    return rows;
  }

  /// Whole-corpus walk in dst order, one decoded chunk at a time.
  template <typename Fn>
  void for_each_chunk(Fn&& fn) const {
    for (std::size_t k = 0; k < dst_metas_.size(); ++k) fn(*chunk(k));
  }

  // Scan accounting (relaxed; tests and benches only).
  [[nodiscard]] std::uint64_t chunks_decoded() const noexcept {
    return chunks_decoded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t chunks_pruned() const noexcept {
    return chunks_pruned_.load(std::memory_order_relaxed);
  }
  /// Decoded bytes resident in the cache right now.
  [[nodiscard]] std::size_t cache_bytes() const;

 private:
  /// One cache slot per dst chunk, then one per src chunk.
  struct CacheEntry {
    std::mutex decode;  ///< held by the one thread decoding this chunk
    std::shared_ptr<const ChunkData> data;  ///< guarded by cache_mutex_
    std::size_t bytes{0};
    std::uint64_t stamp{0};  ///< LRU clock value of the last touch
  };

  FlowStore() = default;

  [[nodiscard]] util::Status section_error(std::size_t k, bool src,
                                           util::Status s) const;
  /// Fetch chunk `k`, verify its CRC, run `decode` on the payload, and
  /// account the decode; every error names the section.
  [[nodiscard]] util::Status decode_checked(
      std::size_t k, bool src,
      const std::function<util::Status(const std::uint8_t*, std::size_t)>&
          decode) const;
  /// Row `i` of columns `c` (FlowColumns or DstChunkSpans) with its
  /// dictionary MAC ids -> record.
  template <typename Cols>
  [[nodiscard]] flow::FlowRecord make_record(const Cols& c,
                                             std::uint32_t src_mac,
                                             std::uint32_t dst_mac,
                                             std::size_t i) const {
    flow::FlowRecord rec;
    rec.time = c.time[i];
    rec.src_ip = net::Ipv4(c.src_ip[i]);
    rec.dst_ip = net::Ipv4(c.dst_ip[i]);
    rec.proto = static_cast<net::Proto>(c.proto[i]);
    rec.src_port = c.src_port[i];
    rec.dst_port = c.dst_port[i];
    rec.src_mac = net::Mac(mac_dict_[src_mac]);
    rec.dst_mac = net::Mac(mac_dict_[dst_mac]);
    rec.packets = c.packets[i];
    rec.bytes = c.bytes[i];
    return rec;
  }
  /// Serve `e` from the cache if resident, refreshing its LRU stamp.
  [[nodiscard]] bool lookup(CacheEntry& e,
                            std::shared_ptr<const ChunkData>& out) const;
  /// Make `data` resident in `e`, then evict LRU entries down to budget.
  void insert(CacheEntry& e,
              const std::shared_ptr<const ChunkData>& data) const;

  ChunkSource source_;
  std::string path_;
  std::uint64_t flow_count_{0};
  std::uint64_t unknown_mac_flows_{0};
  std::vector<util::container::Section> dst_sections_;
  std::vector<util::container::Section> src_sections_;
  std::vector<ChunkMeta> dst_metas_;
  std::vector<ChunkMeta> src_metas_;
  std::vector<std::uint64_t> mac_dict_;  ///< sorted ascending; ids index it
  mutable std::atomic<std::uint64_t> chunks_decoded_{0};
  mutable std::atomic<std::uint64_t> chunks_pruned_{0};
  mutable std::mutex cache_mutex_;
  mutable std::vector<CacheEntry> cache_;
  mutable std::size_t cache_bytes_{0};    ///< guarded by cache_mutex_
  mutable std::uint64_t cache_clock_{0};  ///< guarded by cache_mutex_
};

}  // namespace bw::store
