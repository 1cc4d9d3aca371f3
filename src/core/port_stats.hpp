// Per-host port statistics outside RTBH activity (Section 6; Figs. 16-17,
// Table 4).
//
// For every blackholed /32 address, traffic *outside* its RTBH events (and
// outside a 10-minute reaction window before each event) is aggregated:
// port-diversity features for the RadViz projection, and the daily "top
// port" sequence whose variation separates servers (stable listening
// ports) from clients (ephemeral ports that change daily).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/dataset.hpp"
#include "core/event_merge.hpp"
#include "peeringdb/registry.hpp"
#include "util/parallel.hpp"

namespace bw::core {

enum class HostClass : std::uint8_t { kClient, kServer, kUnclassified };

[[nodiscard]] std::string_view to_string(HostClass c);

struct HostPortStats {
  net::Ipv4 ip;
  std::optional<bgp::Asn> origin;

  // RadViz features (Fig. 16).
  std::size_t unique_src_ports_in{0};
  std::size_t unique_dst_ports_in{0};
  std::size_t unique_src_ports_out{0};
  std::size_t unique_dst_ports_out{0};

  std::size_t days_with_inbound{0};
  std::size_t days_with_outbound{0};
  /// Days with both directions (the paper's >= 20-day criterion).
  std::size_t days_bidirectional{0};

  /// Distinct daily top (proto, port) tuples of inbound traffic.
  std::vector<net::ProtoPort> top_ports;
  /// #top ports / #days with inbound traffic (Fig. 17's y axis).
  double port_variation{0.0};

  HostClass classification{HostClass::kUnclassified};
};

struct PortStatsReport {
  std::vector<HostPortStats> hosts;  ///< all blackholed /32 hosts with data
  std::size_t eligible_hosts{0};     ///< >= min_days bidirectional
  std::size_t clients{0};
  std::size_t servers{0};
  std::size_t blackholed_hosts_total{0};  ///< all /32 event addresses
};

struct PortStatsConfig {
  std::size_t min_days{20};          ///< paper's conservative lower bound
  double client_variation_min{0.5};  ///< port variation threshold
  util::DurationMs reaction_window{10 * util::kMinute};
};

/// The flow-log pass shards over `pool` (null: the global pool) with
/// per-shard accumulators; set/sum merging keeps the result identical at
/// any thread count.
/// A non-null `deadline` is polled per chunk (cooperative supervision).
[[nodiscard]] PortStatsReport compute_port_stats(
    const Dataset& dataset, const std::vector<RtbhEvent>& events,
    const PortStatsConfig& config = {}, util::ThreadPool* pool = nullptr,
    const util::Deadline* deadline = nullptr,
    KernelEngine = KernelEngine::kColumnar);

/// Table 4: origin-AS type distribution of detected clients and servers.
struct AsnTypeRow {
  pdb::OrgType type{pdb::OrgType::kUnknown};
  std::size_t clients{0};
  std::size_t servers{0};
};

[[nodiscard]] std::vector<AsnTypeRow> asn_type_table(
    const PortStatsReport& report, const pdb::Registry& registry);

}  // namespace bw::core
