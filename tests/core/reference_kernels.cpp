#include "reference_kernels.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "core/port_accum.hpp"
#include "net/ports.hpp"

namespace bw::core::reference {

namespace {

/// Per event: every record of the log destined to the event's prefix, at
/// any time, in log order. Each kernel filters these by its own window.
using EventFlows = std::vector<std::vector<const flow::FlowRecord*>>;

EventFlows flows_per_event(const Dataset& dataset,
                           const std::vector<RtbhEvent>& events) {
  EventFlows out(events.size());
  for (std::size_t e = 0; e < events.size(); ++e) {
    for (const flow::FlowRecord& rec : dataset.flows()) {
      if (events[e].prefix.contains(rec.dst_ip)) out[e].push_back(&rec);
    }
  }
  return out;
}

bool attack_correlated(const PreRtbhReport& pre, std::size_t e) {
  return e < pre.per_event.size() && pre.per_event[e].anomaly_within_10min;
}

bool is_amplification(const flow::FlowRecord& rec) {
  return rec.proto == net::Proto::kUdp &&
         net::is_amplification_port(rec.src_port);
}

Dataset::Summary summary(const Dataset& dataset) {
  Dataset::Summary s;
  s.control_updates = dataset.control().size();
  s.blackhole_updates = dataset.blackhole_updates().size();
  s.blackholed_prefixes = dataset.rs_index().prefix_count();
  s.flow_records = dataset.flows().size();
  for (const flow::FlowRecord& rec : dataset.flows()) {
    s.sampled_packets += rec.packets;
    s.sampled_bytes += rec.bytes;
    if (rec.dropped()) {
      s.dropped_packets += rec.packets;
      s.dropped_bytes += rec.bytes;
    }
  }
  return s;
}

FeatureMatrix features(const std::vector<const flow::FlowRecord*>& flows,
                       util::TimeRange range, util::DurationMs slot) {
  FeatureMatrix m;
  m.start = range.begin;
  m.slot = std::max<util::DurationMs>(slot, 1);
  const auto slots = static_cast<std::size_t>(
      std::max<util::TimeMs>((range.length() + m.slot - 1) / m.slot, 0));
  for (auto& s : m.series) s.assign(slots, 0.0);
  std::vector<std::set<std::uint32_t>> sources(slots);
  std::vector<std::set<net::Port>> ports(slots);
  auto series = [&](Feature f) -> std::vector<double>& {
    return m.series[static_cast<std::size_t>(f)];
  };
  for (const flow::FlowRecord* rec : flows) {
    if (!range.contains(rec->time)) continue;
    const auto s = static_cast<std::size_t>((rec->time - range.begin) / m.slot);
    if (s >= slots) continue;
    series(Feature::kPackets)[s] += static_cast<double>(rec->packets);
    series(Feature::kFlows)[s] += 1.0;
    if (rec->proto != net::Proto::kTcp) series(Feature::kNonTcpFlows)[s] += 1.0;
    sources[s].insert(rec->src_ip.value());
    ports[s].insert(rec->dst_port);
  }
  for (std::size_t s = 0; s < slots; ++s) {
    series(Feature::kUniqueSources)[s] = static_cast<double>(sources[s].size());
    series(Feature::kUniqueDstPorts)[s] = static_cast<double>(ports[s].size());
  }
  return m;
}

PreRtbhReport pre_rtbh(const Dataset& dataset,
                       const std::vector<RtbhEvent>& events,
                       const EventFlows& flows, const PreRtbhConfig& config) {
  const auto slots_10min =
      static_cast<std::size_t>(std::max<util::DurationMs>(
          (10 * util::kMinute + config.slot - 1) / config.slot, 1));
  const auto slots_1h = static_cast<std::size_t>(std::max<util::DurationMs>(
      (util::kHour + config.slot - 1) / config.slot, 1));
  PreRtbhReport report;
  for (std::size_t e = 0; e < events.size(); ++e) {
    PreRtbhResult res;
    res.event_index = e;
    const util::TimeRange window{
        std::max(events[e].span.begin - config.window, dataset.period().begin),
        events[e].span.begin};
    const FeatureMatrix m = features(flows[e], window, config.slot);
    res.slots_with_data = m.slots_with_data();
    res.has_data = res.slots_with_data > 0;
    if (res.has_data) {
      const AnomalyScan scan =
          config.detector == PreRtbhConfig::Detector::kCusum
              ? detect_anomalies_cusum(m, config.cusum)
              : detect_anomalies(m, config.ewma);
      res.max_level = scan.max_level();
      res.anomaly_within_10min = scan.any_anomaly_in_last(slots_10min);
      res.anomaly_within_1h = scan.any_anomaly_in_last(slots_1h);
      const auto n = static_cast<int>(scan.level.size());
      for (int s = 0; s < n; ++s) {
        const int level = scan.level[static_cast<std::size_t>(s)];
        if (level >= 1) res.anomalies.emplace_back(s - n, level);
      }
      const std::size_t last = m.slot_count() - 1;
      const auto& pk = m.series[static_cast<std::size_t>(Feature::kPackets)];
      res.last_slot_has_data = pk[last] > 0.0;
      res.last_slot_is_max =
          res.last_slot_has_data &&
          pk[last] >= *std::max_element(pk.begin(), pk.end());
      for (std::size_t f = 0; f < kFeatureCount; ++f) {
        double mean = 0.0;
        for (const double v : m.series[f]) mean += v;
        mean /= static_cast<double>(m.series[f].size());
        res.amplification[f] = mean > 0.0 ? m.series[f][last] / mean : 0.0;
      }
    }
    if (!res.has_data) ++report.no_data;
    else if (res.anomaly_within_10min) ++report.data_anomaly_10m;
    else ++report.data_no_anomaly;
    if (res.has_data && res.anomaly_within_1h) ++report.anomaly_1h;
    report.per_event.push_back(std::move(res));
  }
  return report;
}

DropRateReport drop_rates(const Dataset& dataset,
                          const std::vector<RtbhEvent>& events,
                          const EventFlows& flows,
                          const DropRateConfig& config) {
  std::vector<DropEventDelta> deltas;
  for (std::size_t e = 0; e < events.size(); ++e) {
    DropEventTally tally;
    tally.init(events[e].prefix.length());
    for (const util::TimeRange& active : events[e].active) {
      for (const flow::FlowRecord* rec : flows[e]) {
        if (!active.contains(rec->time)) continue;
        tally.add(rec->packets, rec->bytes, rec->dropped(),
                  tally.host_event ? dataset.member_asn(rec->src_mac)
                                   : std::nullopt);
      }
    }
    deltas.push_back(tally.delta());
  }
  return assemble_drop_rate_report(deltas, config);
}

ProtocolMixReport protocol_mix(const std::vector<RtbhEvent>& events,
                               const EventFlows& flows,
                               const PreRtbhReport& pre,
                               const ProtocolMixConfig& config) {
  ProtocolMixReport report;
  std::map<net::Proto, std::uint64_t> by_proto;
  std::map<std::string, std::size_t> per_protocol_events;
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (!attack_correlated(pre, e)) continue;
    std::size_t matched = 0;
    std::uint64_t ev_packets = 0;
    std::map<net::Port, std::uint64_t> amp_packets;
    for (const flow::FlowRecord* rec : flows[e]) {
      if (!events[e].span.contains(rec->time)) continue;
      ++matched;
      ev_packets += rec->packets;
      by_proto[rec->proto] += rec->packets;
      if (is_amplification(*rec)) amp_packets[rec->src_port] += rec->packets;
    }
    if (matched == 0) continue;
    ++report.events_considered;
    std::size_t protocols = 0;
    for (const auto& [port, pkts] : amp_packets) {
      if (pkts < config.min_packets ||
          static_cast<double>(pkts) <
              config.min_share * static_cast<double>(ev_packets)) {
        continue;
      }
      ++protocols;
      ++per_protocol_events[std::string(*net::amplification_name(port))];
    }
    ++report.amp_protocol_events[std::min<std::size_t>(protocols, 5)];
  }
  for (const auto& [proto, pkts] : by_proto) report.packets_total += pkts;
  if (report.packets_total > 0) {
    const auto share = [&](net::Proto p) {
      return static_cast<double>(by_proto[p]) /
             static_cast<double>(report.packets_total);
    };
    report.udp_share = share(net::Proto::kUdp);
    report.tcp_share = share(net::Proto::kTcp);
    report.icmp_share = share(net::Proto::kIcmp);
    report.other_share = share(net::Proto::kOther);
  }
  report.protocol_event_counts.assign(per_protocol_events.begin(),
                                      per_protocol_events.end());
  std::sort(report.protocol_event_counts.begin(),
            report.protocol_event_counts.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return report;
}

FilteringReport filtering(const std::vector<RtbhEvent>& events,
                          const EventFlows& flows, const PreRtbhReport& pre,
                          double threshold) {
  FilteringReport report;
  report.threshold = threshold;
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (!attack_correlated(pre, e)) continue;
    std::uint64_t total = 0;
    std::uint64_t matched = 0;
    for (const flow::FlowRecord* rec : flows[e]) {
      if (!events[e].span.contains(rec->time)) continue;
      total += rec->packets;
      if (is_amplification(*rec)) matched += rec->packets;
    }
    if (total == 0) continue;
    ++report.events_considered;
    report.coverage.push_back(static_cast<double>(matched) /
                              static_cast<double>(total));
  }
  if (!report.coverage.empty()) {
    const auto full = std::count_if(report.coverage.begin(),
                                    report.coverage.end(),
                                    [&](double c) { return c >= threshold; });
    report.fully_filterable_fraction =
        static_cast<double>(full) / static_cast<double>(report.coverage.size());
  }
  return report;
}

ParticipationReport participation(const Dataset& dataset,
                                  const std::vector<RtbhEvent>& events,
                                  const EventFlows& flows,
                                  const PreRtbhReport& pre) {
  ParticipationReport report;
  struct Tally {
    std::size_t events{0};
    std::uint64_t packets{0};
  };
  std::map<bgp::Asn, Tally> handover;
  std::map<bgp::Asn, Tally> origins;
  std::uint64_t total_packets = 0;
  std::uint64_t amplifiers = 0;
  std::uint64_t handover_ases = 0;
  std::uint64_t origin_ases = 0;
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (!attack_correlated(pre, e)) continue;
    std::set<net::Ipv4> ev_amplifiers;
    std::map<bgp::Asn, std::uint64_t> ev_handover;
    std::map<bgp::Asn, std::uint64_t> ev_origins;
    for (const flow::FlowRecord* rec : flows[e]) {
      if (!events[e].span.contains(rec->time) || !is_amplification(*rec)) {
        continue;
      }
      ev_amplifiers.insert(rec->src_ip);
      if (const auto asn = dataset.member_asn(rec->src_mac)) {
        ev_handover[*asn] += rec->packets;
      }
      if (const auto asn = dataset.origin_asn(rec->src_ip)) {
        ev_origins[*asn] += rec->packets;
      }
      total_packets += rec->packets;
    }
    if (ev_amplifiers.empty()) continue;
    ++report.attacks;
    amplifiers += ev_amplifiers.size();
    handover_ases += ev_handover.size();
    origin_ases += ev_origins.size();
    for (const auto& [asn, pkts] : ev_handover) {
      ++handover[asn].events;
      handover[asn].packets += pkts;
    }
    for (const auto& [asn, pkts] : ev_origins) {
      ++origins[asn].events;
      origins[asn].packets += pkts;
    }
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const auto ranked = [&](const std::map<bgp::Asn, Tally>& in) {
    std::vector<AsParticipation> out;
    for (const auto& [asn, t] : in) {
      out.push_back({asn, t.events, ratio(t.events, report.attacks), t.packets,
                     ratio(t.packets, total_packets)});
    }
    // Descending share; the map already lists tied ASes in ascending order.
    std::stable_sort(out.begin(), out.end(),
                     [](const AsParticipation& a, const AsParticipation& b) {
                       return a.event_share > b.event_share;
                     });
    return out;
  };
  report.handover = ranked(handover);
  report.origins = ranked(origins);
  report.avg_amplifiers_per_attack = ratio(amplifiers, report.attacks);
  report.avg_handover_per_attack = ratio(handover_ases, report.attacks);
  report.avg_origins_per_attack = ratio(origin_ases, report.attacks);
  return report;
}

PortStatsReport port_stats(const Dataset& dataset,
                           const std::vector<RtbhEvent>& events,
                           const PortStatsConfig& config) {
  // Host universe: every /32 event address, with its exclusion windows and
  // the origin of its first event.
  std::map<net::Ipv4, std::vector<util::TimeRange>> excluded;
  std::map<net::Ipv4, std::optional<bgp::Asn>> origin;
  for (const RtbhEvent& ev : events) {
    if (ev.prefix.length() != 32) continue;
    const net::Ipv4 ip = ev.prefix.network();
    excluded[ip].push_back({ev.span.begin - config.reaction_window, ev.span.end});
    origin.emplace(ip, ev.origin != 0 ? std::optional<bgp::Asn>(ev.origin)
                                      : std::nullopt);
  }
  const auto counts = [&](net::Ipv4 ip, util::TimeMs t) {
    const auto it = excluded.find(ip);
    return it != excluded.end() &&
           std::none_of(it->second.begin(), it->second.end(),
                        [&](const util::TimeRange& r) { return r.contains(t); });
  };
  std::map<net::Ipv4, PortAccumulator> acc;
  const util::TimeMs epoch = dataset.period().begin;
  for (const flow::FlowRecord& rec : dataset.flows()) {
    const std::int64_t day = util::slot_index(rec.time - epoch, util::kDay);
    if (counts(rec.dst_ip, rec.time)) {
      acc[rec.dst_ip].add_inbound(day, rec.src_port, rec.proto, rec.dst_port,
                                  rec.packets);
    }
    if (counts(rec.src_ip, rec.time)) {
      acc[rec.src_ip].add_outbound(day, rec.src_port, rec.dst_port);
    }
  }
  PortStatsReport report;
  report.blackholed_hosts_total = excluded.size();
  for (const auto& [ip, a] : acc) {
    report.hosts.push_back(finalize_port_host(ip, origin.at(ip), a, config));
    const HostClass c = report.hosts.back().classification;
    if (c == HostClass::kUnclassified) continue;
    ++report.eligible_hosts;
    ++(c == HostClass::kClient ? report.clients : report.servers);
  }
  return report;
}

CollateralReport collateral(const std::vector<RtbhEvent>& events,
                            const EventFlows& flows,
                            const PortStatsReport& stats,
                            std::uint32_t sampling_rate) {
  std::vector<const HostPortStats*> servers;
  for (const HostPortStats& h : stats.hosts) {
    if (h.classification == HostClass::kServer) servers.push_back(&h);
  }
  CollateralReport empty;
  if (servers.empty()) return empty;
  std::vector<CollateralEvent> rows;
  for (std::size_t e = 0; e < events.size(); ++e) {
    for (const HostPortStats* server : servers) {
      if (!events[e].prefix.contains(server->ip)) continue;
      CollateralEvent ce;
      ce.server = server->ip;
      ce.event_index = e;
      for (const flow::FlowRecord* rec : flows[e]) {
        if (rec->dst_ip != server->ip || !events[e].span.contains(rec->time)) {
          continue;
        }
        const net::ProtoPort pp{rec->proto, rec->dst_port};
        if (std::find(server->top_ports.begin(), server->top_ports.end(),
                      pp) == server->top_ports.end()) {
          continue;
        }
        ce.packets_to_top_ports += rec->packets;
        if (rec->dropped()) ce.packets_actually_dropped += rec->packets;
      }
      rows.push_back(ce);
    }
  }
  return assemble_collateral_report(std::move(rows), servers.size(),
                                    sampling_rate);
}

ClassificationReport classify(const Dataset& dataset,
                              const std::vector<RtbhEvent>& events,
                              const EventFlows& flows,
                              const PreRtbhReport& pre,
                              const ClassifyConfig& config) {
  ClassificationReport report;
  std::set<net::Prefix> squat_prefixes;
  std::set<bgp::Asn> squat_origins;
  for (std::size_t e = 0; e < events.size(); ++e) {
    const RtbhEvent& ev = events[e];
    ClassifiedEvent ce;
    ce.event_index = e;
    ce.duration = ev.span.length();
    for (const flow::FlowRecord* rec : flows[e]) {
      if (ev.span.contains(rec->time)) ce.sampled_packets += rec->packets;
    }
    const bool anomaly = attack_correlated(pre, e);
    const bool host = ev.prefix.length() == 32;
    const bool low_traffic = ce.sampled_packets < config.low_traffic_packets;
    if (ev.prefix.length() <= 24 &&
        ce.duration >= config.squatting_min_duration && !anomaly) {
      ce.cls = EventClass::kSquattingCandidate;
      ++report.squatting;
      squat_prefixes.insert(ev.prefix);
      squat_origins.insert(ev.origin);
    } else if (anomaly) {
      ce.cls = EventClass::kInfrastructureProtection;
      ++report.infrastructure;
    } else if (host && ce.duration >= config.zombie_min_duration &&
               low_traffic) {
      ce.cls = EventClass::kZombieCandidate;
      ++report.zombies;
      if (ev.span.end >= dataset.period().end - config.zombie_end_slack) {
        ++report.zombies_until_period_end;
      }
    } else {
      ce.cls = EventClass::kOther;
      ++report.other;
      if (host && low_traffic) ++report.other_len32_low_traffic;
    }
    report.events.push_back(ce);
  }
  report.squatting_prefixes = squat_prefixes.size();
  report.squatting_origin_as = squat_origins.size();
  return report;
}

WhatIfReport whatif(const Dataset& dataset,
                    const std::vector<RtbhEvent>& events,
                    const EventFlows& flows, const PreRtbhReport& pre) {
  WhatIfReport report;
  for (std::size_t s = 0; s < kStrategyCount; ++s) {
    report.outcomes[s].strategy = static_cast<Strategy>(s);
  }
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (!attack_correlated(pre, e)) continue;
    const RtbhEvent& ev = events[e];
    std::vector<const flow::FlowRecord*> in_span;
    for (const flow::FlowRecord* rec : flows[e]) {
      if (ev.span.contains(rec->time)) in_span.push_back(rec);
    }
    if (in_span.empty()) continue;
    ++report.events_considered;
    const auto is_attack = [](const flow::FlowRecord& rec) {
      return rec.proto == net::Proto::kUdp &&
             (net::is_amplification_port(rec.src_port) || rec.dst_port >= 1024);
    };
    std::set<bgp::Asn> attack_peers;
    for (const flow::FlowRecord* rec : in_span) {
      const auto asn = dataset.member_asn(rec->src_mac);
      if (is_attack(*rec) && asn) attack_peers.insert(*asn);
    }
    for (const flow::FlowRecord* rec : in_span) {
      const bool attack = is_attack(*rec);
      const bool active = std::any_of(
          ev.active.begin(), ev.active.end(),
          [&](const util::TimeRange& r) { return r.contains(rec->time); });
      const auto handover = dataset.member_asn(rec->src_mac);
      const bool udp = rec->proto == net::Proto::kUdp;
      const std::array<bool, kStrategyCount> dropped{
          rec->dropped(),
          active,
          active && handover && attack_peers.contains(*handover),
          is_amplification(*rec),
          is_amplification(*rec) || (udp && rec->dst_port >= 1024),
      };
      for (std::size_t s = 0; s < kStrategyCount; ++s) {
        StrategyOutcome& o = report.outcomes[s];
        (attack ? o.attack_packets : o.legit_packets) += rec->packets;
        if (dropped[s]) {
          (attack ? o.attack_dropped : o.legit_dropped) += rec->packets;
        }
      }
    }
  }
  return report;
}

}  // namespace

AnalysisReport run_pipeline(const Dataset& dataset,
                            const AnalysisConfig& config) {
  AnalysisReport r;
  r.data_quality.dataset = dataset.quality();
  r.summary = summary(dataset);
  r.events = merge_events(dataset.blackhole_updates(), dataset.period().end,
                          config.merge_delta);
  const EventFlows flows = flows_per_event(dataset, r.events);
  r.pre = pre_rtbh(dataset, r.events, flows, config.pre);
  r.drop = drop_rates(dataset, r.events, flows, config.drop);
  r.protocols = protocol_mix(r.events, flows, r.pre, config.protocols);
  r.filtering = filtering(r.events, flows, r.pre, 0.95);
  r.participation = participation(dataset, r.events, flows, r.pre);
  r.ports = port_stats(dataset, r.events, config.ports);
  r.radviz = radviz_projection(r.ports, config.ports.min_days);
  r.collateral = collateral(r.events, flows, r.ports, config.sampling_rate);
  r.classes = classify(dataset, r.events, flows, r.pre, config.classify);
  for (const char* name :
       {"summary", "event_merge", "pre_rtbh", "drop_rate", "protocol_mix",
        "filtering", "participation", "victims", "classify"}) {
    r.data_quality.stages.push_back({name, false, false, ""});
  }
  return r;
}

ParticipationReport participation(const Dataset& dataset,
                                  const std::vector<RtbhEvent>& events,
                                  const PreRtbhReport& pre) {
  return participation(dataset, events, flows_per_event(dataset, events), pre);
}

WhatIfReport whatif(const Dataset& dataset,
                    const std::vector<RtbhEvent>& events,
                    const PreRtbhReport& pre) {
  return whatif(dataset, events, flows_per_event(dataset, events), pre);
}

}  // namespace bw::core::reference
