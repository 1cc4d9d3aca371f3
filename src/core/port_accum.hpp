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
// The accumulator keeps its derived state current as records arrive, so
// finalize_port_host costs O(distinct top ports) however many days the
// host has — a rolling snapshot finalizes every universe host it has to
// re-render. Invariants, all maintained by add_inbound / add_outbound /
// merge (the fields are private so no caller can break them):
//
//   day top     each inbound day's `top` is the first maximum of its
//               (proto, port) -> packets map in key order — exactly what
//               std::max_element picks. Counts only grow, so after adding
//               to key p the new first maximum is either the old one or p:
//               p wins iff its count now exceeds the top's, or equals it
//               with p < top.
//   top_days    histogram top port -> number of days it tops; its keys in
//               order are the host's distinct daily top ports.
//   bidir_days  number of days present in both daily_in and days_out,
//               counted when a day first appears on its second side.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "core/port_stats.hpp"
#include "net/ipv4.hpp"
#include "net/ports.hpp"

namespace bw::core {

/// Per-host traffic accumulation outside RTBH activity. Sets keep the
/// distinct-count semantics exact; the per-day (proto, port) packet tallies
/// feed the daily-top-port sequence.
class PortAccumulator {
 public:
  void add_inbound(std::int64_t day, net::Port src_port, net::Proto proto,
                   net::Port dst_port, std::uint64_t packets) {
    src_in_.insert(src_port);
    dst_in_.insert(dst_port);
    add_day_port(day, {proto, dst_port}, packets);
  }

  void add_outbound(std::int64_t day, net::Port src_port,
                    net::Port dst_port) {
    src_out_.insert(src_port);
    dst_out_.insert(dst_port);
    add_out_day(day);
  }

  /// Fold `other` in: the state afterwards equals that of one accumulator
  /// fed both record sets, in any order (the records engine's shard merge).
  void merge(const PortAccumulator& other);

 private:
  friend HostPortStats finalize_port_host(net::Ipv4 ip,
                                          std::optional<bgp::Asn> origin,
                                          const PortAccumulator& acc,
                                          const PortStatsConfig& config);

  struct Day {
    std::map<net::ProtoPort, std::uint64_t> packets;
    net::ProtoPort top;  ///< first maximum of `packets` in key order
    std::uint64_t top_packets{0};
  };

  void add_day_port(std::int64_t day, net::ProtoPort pp,
                    std::uint64_t packets) {
    const auto [dit, new_day] = daily_in_.try_emplace(day);
    Day& d = dit->second;
    std::uint64_t& count = d.packets[pp];
    count += packets;
    if (new_day) {
      d.top = pp;
      d.top_packets = count;
      ++top_days_[pp];
      if (days_out_.contains(day)) ++bidir_days_;
      return;
    }
    if (pp == d.top) {
      d.top_packets = count;
      return;
    }
    if (count < d.top_packets || (count == d.top_packets && d.top < pp)) {
      return;
    }
    if (const auto old = top_days_.find(d.top); --old->second == 0) {
      top_days_.erase(old);
    }
    d.top = pp;
    d.top_packets = count;
    ++top_days_[pp];
  }

  void add_out_day(std::int64_t day) {
    if (days_out_.insert(day).second && daily_in_.contains(day)) {
      ++bidir_days_;
    }
  }

  std::set<net::Port> src_in_;
  std::set<net::Port> dst_in_;
  std::set<net::Port> src_out_;
  std::set<net::Port> dst_out_;
  std::set<std::int64_t> days_out_;
  /// day -> inbound (proto, port) tallies and their running top.
  std::map<std::int64_t, Day> daily_in_;
  std::map<net::ProtoPort, std::size_t> top_days_;
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
