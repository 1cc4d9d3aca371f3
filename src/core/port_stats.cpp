#include "core/port_stats.hpp"

#include <algorithm>

#include "core/flow_view.hpp"
#include "core/port_accum.hpp"

namespace bw::core {

std::string_view to_string(HostClass c) {
  switch (c) {
    case HostClass::kClient: return "client";
    case HostClass::kServer: return "server";
    case HostClass::kUnclassified: return "unclassified";
  }
  return "unknown";
}

namespace {

struct Exclusions {
  /// Begin-sorted, per host: RTBH event spans plus the reaction window.
  std::vector<util::TimeRange> ranges;

  [[nodiscard]] bool contains(util::TimeMs t) const {
    auto it = std::upper_bound(ranges.begin(), ranges.end(), t,
                               [](util::TimeMs v, const util::TimeRange& r) {
                                 return v < r.begin;
                               });
    if (it == ranges.begin()) return false;
    --it;
    return it->contains(t);
  }
};

}  // namespace

PortStatsReport compute_port_stats(const Dataset& dataset,
                                   const std::vector<RtbhEvent>& events,
                                   const PortStatsConfig& config,
                                   util::ThreadPool* pool_opt,
                                   const util::Deadline* deadline,
                                   KernelEngine) {
  util::ThreadPool& pool = util::pool_or_global(pool_opt);
  PortStatsReport report;

  // Host universe: every /32 RTBH event address, with its exclusion windows.
  std::unordered_map<net::Ipv4, Exclusions> exclusions;
  std::unordered_map<net::Ipv4, std::optional<bgp::Asn>> host_origin;
  for (const auto& ev : events) {
    if (ev.prefix.length() != 32) continue;
    auto& ex = exclusions[ev.prefix.network()];
    ex.ranges.push_back(
        {ev.span.begin - config.reaction_window, ev.span.end});
    host_origin.emplace(ev.prefix.network(),
                        ev.origin != 0 ? std::optional<bgp::Asn>(ev.origin)
                                       : std::nullopt);
  }
  for (auto& [ip, ex] : exclusions) {
    std::sort(ex.ranges.begin(), ex.ranges.end(),
              [](const util::TimeRange& a, const util::TimeRange& b) {
                return a.begin < b.begin;
              });
    // Merge overlaps so the binary-search predicate stays correct.
    std::vector<util::TimeRange> merged;
    for (const auto& r : ex.ranges) {
      if (!merged.empty() && r.begin <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, r.end);
      } else {
        merged.push_back(r);
      }
    }
    ex.ranges = std::move(merged);
  }
  report.blackholed_hosts_total = exclusions.size();

  // Jump straight to each blackholed host's destination and source runs in
  // the columns. A host appears in the report iff at least one
  // non-excluded record touches it in either direction. The accumulator
  // and its finaliser (core/port_accum.hpp) are shared with the streaming
  // incremental kernel, so both sides derive identical rows.
  static const KernelScanMetrics metrics =
      make_kernel_scan_metrics("port_stats");
  const obs::StopWatch watch;
  const FlowView view = dataset.view();
  const util::TimeMs epoch = dataset.period().begin;

  std::vector<net::Ipv4> universe;
  universe.reserve(exclusions.size());
  for (const auto& [ip, ex] : exclusions) universe.push_back(ip);
  std::sort(universe.begin(), universe.end());

  auto hosts = util::parallel_map(pool, universe.size(), [&](std::size_t u) {
    const net::Ipv4 ip = universe[u];
    const Exclusions& ex = exclusions.at(ip);
    PortAccumulator a;
    bool any = false;

    const std::uint64_t din = view.for_each_dst_run(
        ip, [&](const flow::FlowColumns& cols, std::size_t i) {
          if (ex.contains(cols.time[i])) return;
          any = true;
          const std::int64_t day =
              util::slot_index(cols.time[i] - epoch, util::kDay);
          a.add_inbound(day, cols.src_port[i],
                        static_cast<net::Proto>(cols.proto[i]),
                        cols.dst_port[i], cols.packets[i]);
        });

    const std::uint64_t dout = view.for_each_src_run(
        ip, [&](const flow::FlowColumns& cols, std::size_t i) {
          if (ex.contains(cols.s_time[i])) return;
          any = true;
          const std::int64_t day =
              util::slot_index(cols.s_time[i] - epoch, util::kDay);
          a.add_outbound(day, cols.s_src_port[i], cols.s_dst_port[i]);
        });

    metrics.rows->add(din + dout);
    return any ? std::optional<HostPortStats>(finalize_port_host(
                     ip, host_origin.at(ip), a, config))
               : std::nullopt;
  }, 0, deadline);

  report.hosts.reserve(hosts.size());
  for (auto& h : hosts) {
    if (h) report.hosts.push_back(std::move(*h));
  }
  metrics.ns->add(watch.elapsed_ns());
  for (const HostPortStats& h : report.hosts) {
    if (h.classification == HostClass::kUnclassified) continue;
    ++report.eligible_hosts;
    if (h.classification == HostClass::kClient) ++report.clients;
    else ++report.servers;
  }
  return report;
}

std::vector<AsnTypeRow> asn_type_table(const PortStatsReport& report,
                                       const pdb::Registry& registry) {
  std::map<pdb::OrgType, AsnTypeRow> rows;
  for (const auto& h : report.hosts) {
    if (h.classification == HostClass::kUnclassified) continue;
    const pdb::OrgType type =
        h.origin ? registry.type_of(*h.origin) : pdb::OrgType::kUnknown;
    auto& row = rows[type];
    row.type = type;
    if (h.classification == HostClass::kClient) ++row.clients;
    else ++row.servers;
  }
  std::vector<AsnTypeRow> out;
  out.reserve(rows.size());
  for (const auto& [type, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const AsnTypeRow& a, const AsnTypeRow& b) {
    return a.clients + a.servers > b.clients + b.servers;
  });
  return out;
}

}  // namespace bw::core
