// Structure-of-arrays flow table — the one resident flow representation.
//
// The analysis kernels read 4-16 bytes per record but the AoS FlowRecord is
// 44+ bytes wide: every kernel pass would drag the whole record through the
// cache to use a field or two. FlowColumns holds every field of every flow
// as parallel dense vectors in (dst_ip, time) order (plus a src-ordered
// subset for source-side scans), so a kernel becomes a branch-light linear
// walk over contiguous uint32/uint64 columns that the compiler can
// auto-vectorize. The MACs are u32 ids into a sorted MAC dictionary kept
// beside the columns, the ids .bwds chunks store; record_at() rebuilds a
// FlowRecord from a row, and TimeOrderView serves the rows in time order.
//
// Invariants (what keeps every report byte-identical across residency
// modes and thread counts):
//   - The dst-ordered rows are sorted by (dst_ip, time, time position),
//     where a flow's time position is its index in the time-sorted log.
//     This row order is the one visit order of every destination scan: the
//     out-of-core store cuts its chunks from the same sequence
//     (core/flow_view.hpp), so accumulation orders, including
//     non-associative double sums, never change.
//   - A single-address (/32) run is time-sorted, so a half-open time window
//     is a contiguous sub-run: resolve_dst binary-searches it and the time
//     predicate disappears from the inner loop.
//   - The dropped flag is a packed bitmap (one bit per row, 64 rows per
//     word); src_member is a dense member id resolved at build time, so
//     per-source kernels index flat arrays instead of hashing MACs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "flow/record.hpp"
#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "util/time.hpp"

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

  /// The flow record of dst-ordered row `row`, its MAC ids resolved
  /// through `mac_dict`.
  [[nodiscard]] FlowRecord record_at(
      std::size_t row, std::span<const std::uint64_t> mac_dict) const {
    FlowRecord rec;
    rec.time = time[row];
    rec.src_ip = net::Ipv4(src_ip[row]);
    rec.dst_ip = net::Ipv4(dst_ip[row]);
    rec.proto = static_cast<net::Proto>(proto[row]);
    rec.src_port = src_port[row];
    rec.dst_port = dst_port[row];
    rec.src_mac = net::Mac(mac_dict[src_mac_id[row]]);
    rec.dst_mac = net::Mac(mac_dict[dst_mac_id[row]]);
    rec.packets = packets[row];
    rec.bytes = bytes[row];
    return rec;
  }

  // --- columns in (dst_ip, time, time position) order ---
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
  std::vector<std::uint32_t> src_mac_id;     ///< MAC dictionary id
  std::vector<std::uint32_t> dst_mac_id;     ///< MAC dictionary id

  // --- columns in (src_ip, time, time position) order ---
  std::vector<std::uint32_t> s_src_ip;
  std::vector<util::TimeMs> s_time;
  std::vector<std::uint16_t> s_src_port;
  std::vector<std::uint16_t> s_dst_port;
};

/// The flows of a FlowColumns in time order, each rebuilt by record_at on
/// access: time position p is dst row order[p]. A small by-value view that
/// borrows the columns, the MAC dictionary and the order, which must
/// outlive it and its iterators (which do not refer to the view itself).
class TimeOrderView {
 public:
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = FlowRecord;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(const TimeOrderView& view, std::size_t pos)
        : cols_(view.cols_), dict_(view.mac_dict_), order_(view.order_),
          pos_(pos) {}
    FlowRecord operator*() const {
      return cols_->record_at(order_[pos_], dict_);
    }
    Iterator& operator++() {
      ++pos_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++pos_;
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.pos_ == b.pos_;
    }

   private:
    const FlowColumns* cols_{nullptr};
    std::span<const std::uint64_t> dict_;
    std::span<const std::uint32_t> order_;
    std::size_t pos_{0};
  };

  TimeOrderView(const FlowColumns& cols, std::span<const std::uint64_t> mac_dict,
                std::span<const std::uint32_t> order)
      : cols_(&cols), mac_dict_(mac_dict), order_(order) {}

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  /// Time of the flow at time position `i`, without rebuilding it.
  [[nodiscard]] util::TimeMs time(std::size_t i) const {
    return cols_->time[order_[i]];
  }
  [[nodiscard]] FlowRecord operator[](std::size_t i) const {
    return cols_->record_at(order_[i], mac_dict_);
  }
  /// The dst-ordered row of the flow at time position `i`.
  [[nodiscard]] std::size_t row(std::size_t i) const { return order_[i]; }
  [[nodiscard]] Iterator begin() const { return {*this, 0}; }
  [[nodiscard]] Iterator end() const { return {*this, size()}; }

 private:
  const FlowColumns* cols_{nullptr};
  std::span<const std::uint64_t> mac_dict_;
  std::span<const std::uint32_t> order_;
};

}  // namespace bw::flow
