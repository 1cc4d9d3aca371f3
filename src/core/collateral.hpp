// Collateral-damage quantification (Section 6.3, Fig. 18).
//
// For every detected server (stable top ports), count the sampled packets
// addressed to those top ports *during* RTBH events covering the server —
// legitimate-looking traffic that an RTBH throws away. Reported as absolute
// per-event packet counts (the paper deliberately avoids relative shares),
// split into all packets to top ports vs. the subset actually dropped.
#pragma once

#include <vector>

#include "core/event_merge.hpp"
#include "core/port_stats.hpp"

namespace bw::core {

struct CollateralEvent {
  net::Ipv4 server;
  std::size_t event_index{0};
  std::uint64_t packets_to_top_ports{0};   ///< should have been dropped
  std::uint64_t packets_actually_dropped{0};
  std::uint64_t est_original_packets{0};   ///< sampled x sampling rate
};

struct CollateralReport {
  std::vector<CollateralEvent> events;  ///< only events with such traffic
  std::size_t servers_considered{0};
  std::uint64_t total_top_port_packets{0};
  std::uint64_t total_dropped_packets{0};
};

/// Assemble the final report from raw per-(event, server) tallies: fill in
/// the sampling-rate estimate, drop zero rows, total up, and apply the
/// deterministic (packets, event, server) sort. Shared by the batch kernel
/// and the streaming incremental kernel so a rolling snapshot's collateral
/// section is assembled by the same code as the batch report's.
[[nodiscard]] CollateralReport assemble_collateral_report(
    std::vector<CollateralEvent> rows, std::size_t servers_considered,
    std::uint32_t sampling_rate);

/// Events fan out over `pool` (null: the global pool); per-event results
/// are concatenated in event order, so the report is identical at any
/// thread count.
/// A non-null `deadline` is polled per chunk (cooperative supervision).
[[nodiscard]] CollateralReport compute_collateral(
    const Dataset& dataset, const std::vector<RtbhEvent>& events,
    const PortStatsReport& stats, std::uint32_t sampling_rate = 10000,
    util::ThreadPool* pool = nullptr,
    const util::Deadline* deadline = nullptr,
    KernelEngine = KernelEngine::kColumnar);

}  // namespace bw::core
