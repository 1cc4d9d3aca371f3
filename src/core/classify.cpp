#include "core/classify.hpp"

#include <set>

#include "core/flow_view.hpp"

namespace bw::core {

std::string_view to_string(EventClass c) {
  switch (c) {
    case EventClass::kInfrastructureProtection: return "infrastructure-protection";
    case EventClass::kSquattingCandidate: return "squatting-candidate";
    case EventClass::kZombieCandidate: return "zombie-candidate";
    case EventClass::kOther: return "other";
  }
  return "unknown";
}

ClassificationReport classify_events(const Dataset& dataset,
                                     const std::vector<RtbhEvent>& events,
                                     const PreRtbhReport& pre,
                                     const ClassifyConfig& config,
                                     KernelEngine) {
  ClassificationReport report;
  report.events.reserve(events.size());
  std::set<net::Prefix> squat_prefixes;
  std::set<bgp::Asn> squat_origins;

  const FlowView view = dataset.view();
  static const KernelScanMetrics metrics = make_kernel_scan_metrics("classify");
  const obs::StopWatch watch;
  std::uint64_t rows = 0;

  for (std::size_t e = 0; e < events.size(); ++e) {
    const auto& ev = events[e];
    ClassifiedEvent ce;
    ce.event_index = e;
    ce.duration = ev.span.length();
    rows += view.for_each_dst_row(
        ev.prefix, ev.span, [&](const flow::FlowColumns& cols, std::size_t i) {
          ce.sampled_packets += cols.packets[i];
        });
    const bool anomaly = e < pre.per_event.size()
                             ? pre.per_event[e].anomaly_within_10min
                             : false;
    const bool until_end =
        ev.span.end >= dataset.period().end - config.zombie_end_slack;

    if (ev.prefix.length() <= 24 &&
        ce.duration >= config.squatting_min_duration && !anomaly) {
      ce.cls = EventClass::kSquattingCandidate;
      ++report.squatting;
      squat_prefixes.insert(ev.prefix);
      squat_origins.insert(ev.origin);
    } else if (anomaly) {
      ce.cls = EventClass::kInfrastructureProtection;
      ++report.infrastructure;
    } else if (ev.prefix.length() == 32 &&
               ce.duration >= config.zombie_min_duration &&
               ce.sampled_packets < config.low_traffic_packets) {
      ce.cls = EventClass::kZombieCandidate;
      ++report.zombies;
      if (until_end) ++report.zombies_until_period_end;
    } else {
      ce.cls = EventClass::kOther;
      ++report.other;
      if (ev.prefix.length() == 32 &&
          ce.sampled_packets < config.low_traffic_packets) {
        ++report.other_len32_low_traffic;
      }
    }
    report.events.push_back(ce);
  }
  metrics.rows->add(rows);
  metrics.ns->add(watch.elapsed_ns());
  report.squatting_prefixes = squat_prefixes.size();
  report.squatting_origin_as = squat_origins.size();
  return report;
}

}  // namespace bw::core
