// Structure-of-arrays view of a sorted flow log — the columnar hot path.
//
// The analysis kernels read 4-16 bytes per record but the AoS FlowRecord is
// 44+ bytes wide: every kernel pass drags the whole record through the cache
// to use a field or two. FlowColumns materialises the fields kernels touch
// as parallel dense vectors permuted into the Dataset's by_dst order (plus a
// by_src-ordered subset for source-side scans), so a kernel becomes a
// branch-light linear walk over contiguous uint32/uint64 columns that the
// compiler can auto-vectorize.
//
// Invariants (what keeps every report byte-identical across residency
// modes and thread counts):
//   - Row k of the dst-ordered columns is flows[by_dst[k]], where by_dst is
//     sorted by (dst_ip, time, flow index). This row order is the one visit
//     order of every destination scan: the out-of-core store cuts its
//     chunks from the same sequence (core/flow_view.hpp), so accumulation
//     orders, including non-associative double sums, never change.
//   - A single-address (/32) run is time-sorted, so a half-open time window
//     is a contiguous sub-run: resolve_dst binary-searches it and the time
//     predicate disappears from the inner loop.
//   - The dropped flag is a packed bitmap (one bit per row, 64 rows per
//     word); src_member is a dense member id resolved at build time, so
//     per-source kernels index flat arrays instead of hashing MACs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flow/record.hpp"
#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "util/time.hpp"

namespace bw::util {
class ThreadPool;
}

namespace bw::flow {

class FlowColumns {
 public:
  /// src_member value for records whose handover MAC has no member mapping.
  static constexpr std::uint32_t kNoMember = ~std::uint32_t{0};

  /// A contiguous row range [begin, end) of one of the column orders.
  struct Range {
    std::size_t begin{0};
    std::size_t end{0};

    [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  };

  /// A resolved destination scan. When `time_filtered` is false the time
  /// window has already been narrowed away by binary search (host runs);
  /// otherwise the caller must still test range.contains(time[i]).
  struct DstScan {
    std::size_t begin{0};
    std::size_t end{0};
    bool time_filtered{false};

    [[nodiscard]] std::size_t rows() const noexcept { return end - begin; }
  };

  FlowColumns() = default;

  /// Materialise the columns from `flows` under the two permutations.
  /// `member_ids` maps a handover MAC to its dense member id (records with
  /// unmapped MACs get kNoMember). The fill shards over `pool` and the
  /// result is identical at any thread count.
  [[nodiscard]] static FlowColumns build(
      const FlowLog& flows, const std::vector<std::size_t>& by_dst,
      const std::vector<std::size_t>& by_src,
      const std::unordered_map<net::Mac, std::uint32_t>& member_ids,
      util::ThreadPool& pool);

  [[nodiscard]] std::size_t size() const noexcept { return time.size(); }
  [[nodiscard]] bool empty() const noexcept { return time.empty(); }

  /// Dropped flag of dst-ordered row `i` (bit i of the packed bitmap).
  [[nodiscard]] bool dropped(std::size_t i) const noexcept {
    return ((dropped_words[i >> 6] >> (i & 63)) & 1u) != 0;
  }

  /// Rows destined to `prefix`: binary search on the dst_ip column, with
  /// the time window resolved once for host prefixes (see DstScan).
  [[nodiscard]] DstScan resolve_dst(const net::Prefix& prefix,
                                    util::TimeRange range) const;

  /// Full (all-time) run of rows destined to / sourced from one address.
  [[nodiscard]] Range dst_run(net::Ipv4 addr) const;
  [[nodiscard]] Range src_run(net::Ipv4 addr) const;

  /// Invoke `fn(row)` for every dst-ordered row destined to `prefix`
  /// within `range`, in ascending row order. Returns the number of rows
  /// scanned (the resolved range size, before any time predicate).
  template <typename Fn>
  std::uint64_t for_each_dst_row(const net::Prefix& prefix,
                                 util::TimeRange range, Fn&& fn) const {
    const DstScan s = resolve_dst(prefix, range);
    if (!s.time_filtered) {
      for (std::size_t i = s.begin; i < s.end; ++i) fn(i);
    } else {
      for (std::size_t i = s.begin; i < s.end; ++i) {
        if (range.contains(time[i])) fn(i);
      }
    }
    return s.rows();
  }

  // --- columns in by_dst order: row k is flows[by_dst[k]] ---
  std::vector<util::TimeMs> time;
  std::vector<std::uint32_t> src_ip;
  std::vector<std::uint32_t> dst_ip;
  std::vector<std::uint8_t> proto;
  std::vector<std::uint16_t> src_port;
  std::vector<std::uint16_t> dst_port;
  std::vector<std::uint32_t> packets;
  std::vector<std::uint64_t> bytes;
  std::vector<std::uint64_t> dropped_words;  ///< packed dropped() bitmap
  std::vector<std::uint32_t> src_member;     ///< dense member id or kNoMember

  // --- columns in by_src order: row k is flows[by_src[k]] ---
  std::vector<std::uint32_t> s_src_ip;
  std::vector<util::TimeMs> s_time;
  std::vector<std::uint16_t> s_src_port;
  std::vector<std::uint16_t> s_dst_port;
};

}  // namespace bw::flow
