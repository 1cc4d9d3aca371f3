#include "core/collateral.hpp"

#include <algorithm>

#include "core/flow_view.hpp"

namespace bw::core {

CollateralReport compute_collateral(const Dataset& dataset,
                                    const std::vector<RtbhEvent>& events,
                                    const PortStatsReport& stats,
                                    std::uint32_t sampling_rate,
                                    util::ThreadPool* pool_opt,
                                    const util::Deadline* deadline,
                                    KernelEngine) {
  util::ThreadPool& pool = util::pool_or_global(pool_opt);
  CollateralReport report;

  // Detected servers with their stable top ports, in address order
  // (stats.hosts is already sorted by ip), so that the servers covered by
  // a non-/32 event can be found with one binary search.
  std::vector<const HostPortStats*> servers;
  for (const auto& h : stats.hosts) {
    if (h.classification == HostClass::kServer) servers.push_back(&h);
  }
  report.servers_considered = servers.size();
  if (servers.empty()) return report;

  // Per event, independently: the collateral rows of every covered server.
  const FlowView view = dataset.view();
  static const KernelScanMetrics metrics = make_kernel_scan_metrics("collateral");
  const obs::StopWatch watch;
  auto per_event = util::parallel_map(pool, events.size(), [&](std::size_t e) {
    const auto& ev = events[e];
    std::vector<CollateralEvent> rows;
    const net::Ipv4 lo = ev.prefix.network();
    const net::Ipv4 hi = ev.prefix.address_at(ev.prefix.size() - 1);
    auto begin = std::lower_bound(
        servers.begin(), servers.end(), lo,
        [](const HostPortStats* h, net::Ipv4 v) { return h->ip < v; });
    std::uint64_t scanned = 0;
    for (auto it = begin; it != servers.end() && (*it)->ip <= hi; ++it) {
      const HostPortStats* server = *it;
      CollateralEvent ce;
      ce.server = server->ip;
      ce.event_index = e;
      scanned += view.for_each_dst_row(
          net::Prefix::host(server->ip), ev.span,
          [&](const flow::FlowColumns& cols, std::size_t i) {
        const net::ProtoPort pp{static_cast<net::Proto>(cols.proto[i]),
                                cols.dst_port[i]};
        const bool to_top_port =
            std::find(server->top_ports.begin(), server->top_ports.end(),
                      pp) != server->top_ports.end();
        if (!to_top_port) return;
        ce.packets_to_top_ports += cols.packets[i];
        if (cols.dropped(i)) ce.packets_actually_dropped += cols.packets[i];
      });
      rows.push_back(ce);
    }
    metrics.rows->add(scanned);
    return rows;
  }, 0, deadline);
  metrics.ns->add(watch.elapsed_ns());

  std::vector<CollateralEvent> rows;
  for (const auto& per : per_event) {
    rows.insert(rows.end(), per.begin(), per.end());
  }
  return assemble_collateral_report(std::move(rows), servers.size(),
                                    sampling_rate);
}

CollateralReport assemble_collateral_report(std::vector<CollateralEvent> rows,
                                            std::size_t servers_considered,
                                            std::uint32_t sampling_rate) {
  CollateralReport report;
  report.servers_considered = servers_considered;
  report.events.reserve(rows.size());
  for (CollateralEvent& ce : rows) {
    if (ce.packets_to_top_ports == 0) continue;
    ce.est_original_packets = ce.packets_to_top_ports * sampling_rate;
    report.total_top_port_packets += ce.packets_to_top_ports;
    report.total_dropped_packets += ce.packets_actually_dropped;
    report.events.push_back(ce);
  }
  // Tie-break on (event, server) so the order is fully deterministic.
  std::sort(report.events.begin(), report.events.end(),
            [](const CollateralEvent& a, const CollateralEvent& b) {
              if (a.packets_to_top_ports != b.packets_to_top_ports) {
                return a.packets_to_top_ports < b.packets_to_top_ports;
              }
              if (a.event_index != b.event_index) {
                return a.event_index < b.event_index;
              }
              return a.server < b.server;
            });
  return report;
}

}  // namespace bw::core
