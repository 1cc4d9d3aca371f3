// Shared per-host port accumulation for the Section 6 kernels.
//
// The batch port-stats kernel and the streaming incremental kernel must
// produce the *same numbers* for the same records — the rolling-report
// convergence contract depends on it. The only way to guarantee that is to
// make them share the accumulation state and the finaliser: both sides
// feed records into a PortAccumulator and both call finalize_port_host to
// turn it into a HostPortStats row. Anything derived (top-port sets,
// variation, classification) lives here exactly once.
//
// Layout. All state is sorted contiguous vectors, no tree nodes:
//
//   port sets   four PortSets (src/dst x in/out): sorted u16 vectors up to
//               4,096 ports, a 65,536-bit bitmap (the same 8 KiB) above.
//   days_out    sorted outbound day indices.
//   days_in     sorted inbound days, each with its running top port.
//   tallies     sorted (day, proto:port) -> packets, all days in one vector.
//   top_days    sorted top port -> number of days it tops.
//
// Both hot paths deliver a host's records in time order (the batch kernel
// walks time-sorted dst/src runs, the streaming kernel commits in delivery
// order), so a record almost always lands on the last day: the day lookups
// check the back first, and new entries append. Out-of-order days (late
// stream deliveries) insert in place and stay exact.
//
// The accumulator keeps its derived state current as records arrive, so
// finalize_port_host costs O(distinct top ports) however many days the
// host has — a rolling snapshot finalizes every universe host it has to
// re-render. Invariants, all maintained by add_inbound / add_outbound
// (the fields are private so no caller can break them):
//
//   sorted      days_in, days_out, tallies and top_days are strictly
//               increasing in their keys; every tally's day is in days_in
//               and every inbound day has at least one tally.
//   day top     each inbound day's `top` is the first maximum of its
//               (proto, port) tallies in key order — exactly what
//               std::max_element picks. Counts only grow, so after adding
//               to key p the new first maximum is either the old one or p:
//               p wins iff its count now exceeds the top's, or equals it
//               with p < top.
//   top_days    histogram top port -> number of days it tops; its keys in
//               order are the host's distinct daily top ports.
//   bidir_days  number of days present in both days_in and days_out,
//               counted when a day first appears on its second side.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/port_stats.hpp"
#include "net/ipv4.hpp"
#include "net/ports.hpp"

namespace bw::core {

/// Exact distinct-port set. Sorted while it holds at most kSortedMax ports;
/// past that the same 4,096 u16 words become a bitmap over all 65,536
/// ports, so no insert ever shifts more than 8 KiB.
class PortSet {
 public:
  void insert(net::Port port);
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::size_t kSortedMax = 4096;

  [[nodiscard]] bool is_bitmap() const noexcept { return size_ > kSortedMax; }
  void set_bit(net::Port port);

  std::vector<std::uint16_t> words_;  ///< sorted ports, or the bitmap
  std::size_t size_{0};
};

/// Per-host traffic accumulation outside RTBH activity: exact distinct
/// port counts plus the per-day (proto, port) packet tallies that feed the
/// daily-top-port sequence.
class PortAccumulator {
 public:
  void add_inbound(std::int64_t day, net::Port src_port, net::Proto proto,
                   net::Port dst_port, std::uint64_t packets) {
    src_in_.insert(src_port);
    dst_in_.insert(dst_port);
    add_day_port(day, net::port_key({proto, dst_port}), packets);
  }

  void add_outbound(std::int64_t day, net::Port src_port,
                    net::Port dst_port) {
    src_out_.insert(src_port);
    dst_out_.insert(dst_port);
    add_out_day(day);
  }

 private:
  friend HostPortStats finalize_port_host(net::Ipv4 ip,
                                          std::optional<bgp::Asn> origin,
                                          const PortAccumulator& acc,
                                          const PortStatsConfig& config);

  using PortKey = std::uint32_t;  ///< net::port_key

  struct Day {
    std::int64_t day{0};
    std::uint64_t top_packets{0};
    PortKey top{0};  ///< first maximum of the day's tallies in key order
  };
  struct Tally {
    std::int64_t day{0};
    std::uint64_t packets{0};
    PortKey port{0};
  };
  struct TopCount {
    PortKey port{0};
    std::uint32_t days{0};
  };

  void add_day_port(std::int64_t day, PortKey port, std::uint64_t packets);
  void add_out_day(std::int64_t day);
  void count_top(PortKey port);
  void uncount_top(PortKey port);

  PortSet src_in_;
  PortSet dst_in_;
  PortSet src_out_;
  PortSet dst_out_;
  std::vector<std::int64_t> days_out_;
  std::vector<Day> days_in_;
  std::vector<Tally> tallies_;
  std::vector<TopCount> top_days_;
  std::size_t bidir_days_{0};
};

/// Derive one host's report row from its accumulator: unique counts,
/// bidirectional days, the daily-top-port sequence (ties resolved to the
/// smallest (proto, port), as std::max_element keeps the first maximum),
/// the port-variation ratio and the client/server classification.
/// O(distinct top ports).
[[nodiscard]] HostPortStats finalize_port_host(net::Ipv4 ip,
                                               std::optional<bgp::Asn> origin,
                                               const PortAccumulator& acc,
                                               const PortStatsConfig& config);

}  // namespace bw::core
