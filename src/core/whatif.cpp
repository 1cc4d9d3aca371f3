#include "core/whatif.hpp"

#include <algorithm>

#include "core/flow_view.hpp"
#include "net/ports.hpp"
#include "util/parallel.hpp"

namespace bw::core {

std::string_view to_string(Strategy s) {
  switch (s) {
    case Strategy::kRtbhObserved: return "rtbh-observed";
    case Strategy::kRtbhPerfect: return "rtbh-perfect";
    case Strategy::kRtbhTargeted: return "rtbh-targeted";
    case Strategy::kFlowspecAmpPorts: return "flowspec-amp-ports";
    case Strategy::kAdvancedBlackholing: return "advanced-blackholing";
  }
  return "unknown";
}

namespace {

bool is_attack_packet(std::uint8_t proto, net::Port src_port,
                      net::Port dst_port) {
  if (proto != static_cast<std::uint8_t>(net::Proto::kUdp)) return false;
  if (net::is_amplification_port(src_port)) return true;
  // UDP towards an ephemeral destination port during an attack event:
  // reflection lands on the port the attacker spoofed, carpet floods sweep
  // high ports. Gaming clients also live here — that ambiguity is exactly
  // the whitelisting problem Section 7.2 describes.
  return dst_port >= 1024;
}

bool in_active_span(const RtbhEvent& ev, util::TimeMs t) {
  auto it = std::upper_bound(ev.active.begin(), ev.active.end(), t,
                             [](util::TimeMs v, const util::TimeRange& r) {
                               return v < r.begin;
                             });
  if (it == ev.active.begin()) return false;
  --it;
  return it->contains(t);
}

void add_packets(StrategyOutcome& o, bool attack, bool dropped,
                 std::uint64_t packets) {
  if (attack) {
    o.attack_packets += packets;
    if (dropped) o.attack_dropped += packets;
  } else {
    o.legit_packets += packets;
    if (dropped) o.legit_dropped += packets;
  }
}

}  // namespace

WhatIfReport compute_whatif(const Dataset& dataset,
                            const std::vector<RtbhEvent>& events,
                            const PreRtbhReport& pre, util::ThreadPool* pool) {
  const FlowView view = dataset.view();
  const std::size_t n_src = dataset.source_as_count();
  constexpr auto kUdp = static_cast<std::uint8_t>(net::Proto::kUdp);
  constexpr auto kTargeted = static_cast<std::size_t>(Strategy::kRtbhTargeted);
  static const KernelScanMetrics metrics = make_kernel_scan_metrics("whatif");
  const obs::StopWatch watch;

  // One pass per event, each on its own partial; the partials are integer
  // tallies summed in event order, so the report is the same at any thread
  // count. Targeted RTBH drops active-span packets from the handover ASes
  // that carry attack traffic anywhere in the event, which is known only
  // after the pass, so its drops are tallied per dense member id and summed
  // over the attack peers afterwards.
  struct EventPartial {
    std::array<StrategyOutcome, kStrategyCount> outcomes{};
    bool matched{false};
    std::uint64_t rows{0};
  };
  const std::vector<EventPartial> partials = util::parallel_map(
      util::pool_or_global(pool), events.size(),
      [&](std::size_t e) {
        EventPartial part;
        if (e >= pre.per_event.size() ||
            !pre.per_event[e].anomaly_within_10min) {
          return part;
        }
        const auto& ev = events[e];
        std::vector<std::uint8_t> attack_peer(n_src);
        std::vector<std::uint64_t> active_attack(n_src);
        std::vector<std::uint64_t> active_legit(n_src);
        part.rows = view.for_each_dst_row(
            ev.prefix, ev.span,
            [&](const flow::FlowColumns& cols, std::size_t i) {
              part.matched = true;
              const std::uint64_t pk = cols.packets[i];
              const bool udp = cols.proto[i] == kUdp;
              const bool attack = is_attack_packet(
                  cols.proto[i], cols.src_port[i], cols.dst_port[i]);
              const bool active = in_active_span(ev, cols.time[i]);
              const bool amp_match =
                  udp && net::is_amplification_port(cols.src_port[i]);
              const bool advanced_match =
                  amp_match || (udp && cols.dst_port[i] >= 1024);

              const std::array<bool, kStrategyCount> dropped{
                  cols.dropped(i),  // observed
                  active,           // perfect RTBH
                  false,            // targeted: settled after the pass
                  amp_match,        // FlowSpec
                  advanced_match,   // advanced BH
              };
              for (std::size_t s = 0; s < kStrategyCount; ++s) {
                add_packets(part.outcomes[s], attack, dropped[s], pk);
              }
              const std::uint32_t m = cols.src_member[i];
              if (m == flow::FlowColumns::kNoMember) return;
              if (attack) attack_peer[m] = 1;
              if (active) (attack ? active_attack : active_legit)[m] += pk;
            });
        for (std::uint32_t m = 0; m < n_src; ++m) {
          if (attack_peer[m] == 0) continue;
          part.outcomes[kTargeted].attack_dropped += active_attack[m];
          part.outcomes[kTargeted].legit_dropped += active_legit[m];
        }
        return part;
      },
      1);

  WhatIfReport report;
  for (std::size_t s = 0; s < kStrategyCount; ++s) {
    report.outcomes[s].strategy = static_cast<Strategy>(s);
  }
  std::uint64_t rows = 0;
  for (const EventPartial& part : partials) {
    rows += part.rows;
    if (part.matched) ++report.events_considered;
    for (std::size_t s = 0; s < kStrategyCount; ++s) {
      StrategyOutcome& o = report.outcomes[s];
      o.attack_packets += part.outcomes[s].attack_packets;
      o.attack_dropped += part.outcomes[s].attack_dropped;
      o.legit_packets += part.outcomes[s].legit_packets;
      o.legit_dropped += part.outcomes[s].legit_dropped;
    }
  }
  metrics.rows->add(rows);
  metrics.ns->add(watch.elapsed_ns());
  return report;
}

}  // namespace bw::core
