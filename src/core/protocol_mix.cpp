#include "core/protocol_mix.hpp"

#include <algorithm>

#include "core/flow_view.hpp"
#include "net/ports.hpp"

namespace bw::core {

ProtocolMixReport compute_protocol_mix(const Dataset& dataset,
                                       const std::vector<RtbhEvent>& events,
                                       const PreRtbhReport& pre,
                                       const ProtocolMixConfig& config,
                                       KernelEngine) {
  ProtocolMixReport report;
  std::uint64_t udp = 0;
  std::uint64_t tcp = 0;
  std::uint64_t icmp = 0;
  std::uint64_t other = 0;
  std::map<std::string, std::size_t> per_protocol_events;

  // Per-amplification-protocol tallies live in a flat array indexed by
  // net::amplification_port_index; the "seen" flags count a protocol as
  // present even when its only records carry zero packets.
  static const KernelScanMetrics metrics =
      make_kernel_scan_metrics("protocol_mix");
  const obs::StopWatch watch;
  const FlowView view = dataset.view();
  const auto amp = net::amplification_protocols();
  constexpr auto kUdp = static_cast<std::uint8_t>(net::Proto::kUdp);
  constexpr auto kTcp = static_cast<std::uint8_t>(net::Proto::kTcp);
  constexpr auto kIcmp = static_cast<std::uint8_t>(net::Proto::kIcmp);
  constexpr auto kOther = static_cast<std::uint8_t>(net::Proto::kOther);
  std::vector<std::uint64_t> amp_pkts(amp.size());
  std::vector<std::uint8_t> amp_seen(amp.size());
  std::uint64_t rows = 0;

  for (std::size_t e = 0; e < events.size(); ++e) {
    if (e >= pre.per_event.size() || !pre.per_event[e].anomaly_within_10min) {
      continue;
    }
    const auto& ev = events[e];
    std::size_t matched_records = 0;
    std::uint64_t ev_packets = 0;
    std::fill(amp_pkts.begin(), amp_pkts.end(), 0);
    std::fill(amp_seen.begin(), amp_seen.end(), std::uint8_t{0});
    rows += view.for_each_dst_row(
        ev.prefix, ev.span, [&](const flow::FlowColumns& cols, std::size_t i) {
      ++matched_records;
      const std::uint64_t pk = cols.packets[i];
      const std::uint8_t proto = cols.proto[i];
      ev_packets += pk;
      switch (proto) {
        case kUdp: udp += pk; break;
        case kTcp: tcp += pk; break;
        case kIcmp: icmp += pk; break;
        case kOther: other += pk; break;
        default: break;
      }
      if (proto == kUdp) {
        const std::size_t idx = net::amplification_port_index(cols.src_port[i]);
        if (idx != net::kNoAmplificationPort) {
          amp_seen[idx] = 1;
          amp_pkts[idx] += pk;
        }
      }
    });
    if (matched_records == 0) continue;
    ++report.events_considered;

    std::size_t protocols = 0;
    for (std::size_t k = 0; k < amp.size(); ++k) {
      if (amp_seen[k] == 0) continue;
      const std::uint64_t pkts = amp_pkts[k];
      if (pkts < config.min_packets) continue;
      if (static_cast<double>(pkts) <
          config.min_share * static_cast<double>(ev_packets)) {
        continue;
      }
      ++protocols;
      ++per_protocol_events[std::string(amp[k].name)];
    }
    ++report.amp_protocol_events[std::min<std::size_t>(protocols, 5)];
  }
  metrics.rows->add(rows);
  metrics.ns->add(watch.elapsed_ns());

  const std::uint64_t total = udp + tcp + icmp + other;
  report.packets_total = total;
  if (total > 0) {
    const auto d = static_cast<double>(total);
    report.udp_share = static_cast<double>(udp) / d;
    report.tcp_share = static_cast<double>(tcp) / d;
    report.icmp_share = static_cast<double>(icmp) / d;
    report.other_share = static_cast<double>(other) / d;
  }
  report.protocol_event_counts.assign(per_protocol_events.begin(),
                                      per_protocol_events.end());
  std::sort(report.protocol_event_counts.begin(),
            report.protocol_event_counts.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return report;
}

}  // namespace bw::core
