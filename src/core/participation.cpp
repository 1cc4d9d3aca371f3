#include "core/participation.hpp"

#include <algorithm>
#include <map>

#include "core/flow_view.hpp"
#include "net/ports.hpp"

namespace bw::core {

ParticipationReport compute_participation(const Dataset& dataset,
                                          const std::vector<RtbhEvent>& events,
                                          const PreRtbhReport& pre) {
  ParticipationReport report;
  struct Tally {
    std::size_t events{0};
    std::uint64_t packets{0};
  };
  const std::size_t n_src = dataset.source_as_count();
  std::vector<Tally> handover(n_src);  ///< by dense member id
  std::map<bgp::Asn, Tally> origins;
  std::uint64_t total_packets = 0;
  std::uint64_t total_amplifiers = 0;
  std::uint64_t total_handover = 0;
  std::uint64_t total_origins = 0;

  // Per-event scratch, reused: handover packets by dense member id (with a
  // seen flag, so a zero-packet record still counts its handover AS), and
  // (amplifier address, packets) pairs whose sort-unique yields the
  // distinct amplifiers, each resolved to its origin AS once.
  std::vector<std::uint64_t> ev_handover(n_src);
  std::vector<std::uint8_t> ev_seen(n_src);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ev_sources;
  std::map<bgp::Asn, std::uint64_t> ev_origins;

  const FlowView view = dataset.view();
  constexpr auto kUdp = static_cast<std::uint8_t>(net::Proto::kUdp);
  static const KernelScanMetrics metrics =
      make_kernel_scan_metrics("participation");
  const obs::StopWatch watch;
  std::uint64_t rows = 0;

  for (std::size_t e = 0; e < events.size(); ++e) {
    if (e >= pre.per_event.size() || !pre.per_event[e].anomaly_within_10min) {
      continue;
    }
    const auto& ev = events[e];
    std::fill(ev_handover.begin(), ev_handover.end(), 0);
    std::fill(ev_seen.begin(), ev_seen.end(), std::uint8_t{0});
    ev_sources.clear();
    ev_origins.clear();
    rows += view.for_each_dst_row(
        ev.prefix, ev.span, [&](const flow::FlowColumns& cols, std::size_t i) {
          if (cols.proto[i] != kUdp ||
              net::amplification_port_index(cols.src_port[i]) ==
                  net::kNoAmplificationPort) {
            return;
          }
          const std::uint64_t pk = cols.packets[i];
          ev_sources.emplace_back(cols.src_ip[i], pk);
          const std::uint32_t m = cols.src_member[i];
          if (m != flow::FlowColumns::kNoMember) {
            ev_seen[m] = 1;
            ev_handover[m] += pk;
          }
        });
    if (ev_sources.empty()) continue;  // not an amplification attack

    ++report.attacks;
    for (std::uint32_t m = 0; m < n_src; ++m) {
      if (ev_seen[m] == 0) continue;
      ++total_handover;
      ++handover[m].events;
      handover[m].packets += ev_handover[m];
    }
    std::sort(ev_sources.begin(), ev_sources.end());
    for (std::size_t i = 0; i < ev_sources.size();) {
      const std::uint32_t ip = ev_sources[i].first;
      std::uint64_t pk = 0;
      for (; i < ev_sources.size() && ev_sources[i].first == ip; ++i) {
        pk += ev_sources[i].second;
      }
      total_packets += pk;
      ++total_amplifiers;
      if (const auto asn = dataset.origin_asn(net::Ipv4(ip))) {
        ev_origins[*asn] += pk;
      }
    }
    total_origins += ev_origins.size();
    for (const auto& [asn, pk] : ev_origins) {
      ++origins[asn].events;
      origins[asn].packets += pk;
    }
  }
  metrics.rows->add(rows);
  metrics.ns->add(watch.elapsed_ns());

  const auto row = [&](bgp::Asn asn, const Tally& t) {
    AsParticipation p;
    p.asn = asn;
    p.events = t.events;
    p.event_share = report.attacks > 0 ? static_cast<double>(t.events) /
                                             static_cast<double>(report.attacks)
                                       : 0.0;
    p.packets = t.packets;
    p.traffic_share = total_packets > 0 ? static_cast<double>(t.packets) /
                                              static_cast<double>(total_packets)
                                        : 0.0;
    return p;
  };
  // A total order: tied shares rank by ascending ASN.
  const auto rank = [](std::vector<AsParticipation>& out) {
    std::sort(out.begin(), out.end(),
              [](const AsParticipation& a, const AsParticipation& b) {
                if (a.event_share != b.event_share) {
                  return a.event_share > b.event_share;
                }
                return a.asn < b.asn;
              });
  };
  for (std::uint32_t m = 0; m < n_src; ++m) {
    if (handover[m].events > 0) {
      report.handover.push_back(row(dataset.source_as(m), handover[m]));
    }
  }
  for (const auto& [asn, t] : origins) report.origins.push_back(row(asn, t));
  rank(report.handover);
  rank(report.origins);
  if (report.attacks > 0) {
    const auto n = static_cast<double>(report.attacks);
    report.avg_amplifiers_per_attack =
        static_cast<double>(total_amplifiers) / n;
    report.avg_handover_per_attack = static_cast<double>(total_handover) / n;
    report.avg_origins_per_attack = static_cast<double>(total_origins) / n;
  }
  return report;
}

}  // namespace bw::core
