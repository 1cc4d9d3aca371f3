// Example: study one DDoS mitigation end to end.
//
// Builds a small IXP with three peers of different RTBH import policies,
// launches a two-vector amplification attack against a web server, lets an
// automatic mitigation system announce on/off blackholes (Fig. 9), and then
// walks the analysis chain over the resulting corpus: event merging,
// pre-RTBH anomaly detection, drop-rate accounting, and the fine-grained
// filtering what-if.
//
//   ./ddos_mitigation_study
#include <iostream>

#include "core/drop_rate.hpp"
#include "core/event_merge.hpp"
#include "core/filtering.hpp"
#include "core/pre_rtbh.hpp"
#include "core/protocol_mix.hpp"
#include "gen/amplification.hpp"
#include "gen/ddos.hpp"
#include "gen/operator_model.hpp"
#include "util/table.hpp"

int main() {
  using namespace bw;

  // --- A minimal IXP: victim's upstream plus two transit peers. ---
  ixp::PlatformConfig pcfg;
  pcfg.period = {0, util::days(8)};
  pcfg.sampling_rate = 100;  // denser sampling for a readable small demo
  pcfg.clock.offset_ms = -40;
  pcfg.seed = 7;
  ixp::Platform ixp(pcfg);

  const auto upstream = ixp.add_member(
      64500, {.blackhole = bgp::BlackholeAcceptance::kAcceptAll},
      {*net::Prefix::parse("24.10.0.0/16")});
  const auto good_transit = ixp.add_member(
      64501, {.blackhole = bgp::BlackholeAcceptance::kWhitelistHost},
      {*net::Prefix::parse("16.0.0.0/16")});
  const auto lazy_transit = ixp.add_member(
      64502, {.blackhole = bgp::BlackholeAcceptance::kClassfulOnly},
      {*net::Prefix::parse("16.1.0.0/16")});
  (void)upstream;

  const net::Ipv4 victim(24, 10, 0, 80);  // the web server under attack
  std::cout << "Victim " << victim.to_string()
            << " behind AS64500; transit peers AS64501 (whitelists /32) and "
               "AS64502 (stock /24 filter).\n";

  // --- Amplifier ecosystem behind the two transit peers. ---
  gen::AmplifierPoolConfig acfg;
  acfg.origin_as_count = 40;
  acfg.amplifier_count = 3000;
  gen::AmplifierPool pool(acfg, {good_transit, lazy_transit}, util::Rng(1));
  for (const auto& origin : pool.origins()) {
    ixp.register_origin(origin.prefix, origin.asn, origin.handover);
  }

  // --- The attack: NTP + cLDAP reflection, day 5, ~75 minutes. ---
  gen::AttackSpec attack;
  attack.victim = victim;
  attack.window = {util::days(5), util::days(5) + util::minutes(75.0)};
  attack.total_packets = 40'000'000;
  attack.amplifier_count = 120;
  attack.vectors.push_back({gen::VectorKind::kUdpAmplification, 123, 0.6});
  attack.vectors.push_back({gen::VectorKind::kUdpAmplification, 389, 0.4});

  // --- Automatic mitigation reacting to the attack. ---
  gen::OperatorModel op(ixp.service(), util::Rng(2));
  gen::MitigationBehavior behavior;
  behavior.mean_cycles = 10;
  const auto mitigation =
      op.mitigate(net::Prefix::host(victim), 64500, 65000,
                  attack.window.begin, attack.window.length(),
                  pcfg.period.end, behavior);
  std::cout << "Mitigation: " << mitigation.announcements
            << " announce/withdraw cycles, first announcement "
            << util::format_duration(mitigation.span.begin -
                                     attack.window.begin)
            << " after attack start.\n\n";

  // --- Replay: attack + some legitimate background to the victim. ---
  auto result = ixp.run(mitigation.updates, [&](const auto& sink) {
    gen::DdosGenerator ddos(pool, util::Rng(3));
    ddos.emit(attack, std::vector<flow::MemberId>{good_transit, lazy_transit},
              sink);
    // Daily HTTPS traffic towards the victim from a fixed client.
    for (int day = 0; day < 8; ++day) {
      flow::TrafficBurst b;
      b.window = {day * util::kDay + 9 * util::kHour,
                  day * util::kDay + 17 * util::kHour};
      b.src_ip = net::Ipv4(16, 0, 0, 10);
      b.dst_ip = victim;
      b.proto = net::Proto::kTcp;
      b.src_port = 40000;
      b.dst_port = 443;
      b.packets = 200'000;
      b.avg_packet_bytes = 800;
      b.handover = good_transit;
      sink(b);
    }
  });

  const core::Dataset dataset =
      core::Dataset::from_run(std::move(result), ixp);
  const auto summary = dataset.summary();
  std::cout << "Corpus: " << summary.flow_records << " sampled records, "
            << summary.dropped_packets << " dropped.\n";

  // --- Analysis chain. ---
  const auto events =
      core::merge_events(dataset.blackhole_updates(), dataset.period().end);
  std::cout << "Merged " << summary.blackhole_updates
            << " BGP updates into " << events.size() << " RTBH event(s).\n";

  const auto pre = core::compute_pre_rtbh(dataset, events);
  for (const auto& r : pre.per_event) {
    std::cout << "Event on " << events[r.event_index].prefix.to_string()
              << ": anomaly within 10 min = "
              << (r.anomaly_within_10min ? "YES" : "no")
              << ", max anomaly level " << r.max_level << "/5\n";
  }

  const auto drop = core::compute_drop_rates(dataset, events);
  util::TextTable table({"prefix len", "packets", "dropped"});
  for (const auto& s : drop.by_length) {
    const std::string len = std::to_string(static_cast<int>(s.length));
    table.add_row({std::string("/").append(len),
                   std::to_string(s.packets_total),
                   util::fmt_percent(s.packet_drop_rate(), 1)});
  }
  std::cout << "\nDrop accounting during blackhole activity:\n" << table;
  std::cout << "AS64501 whitelists /32 -> its share drops; AS64502 keeps "
               "forwarding (stock <= /24 filter).\n\n";

  const auto mixr = core::compute_protocol_mix(dataset, events, pre);
  std::cout << "Attack protocol mix: " << util::fmt_percent(mixr.udp_share, 1)
            << " UDP; amplification protocols seen:";
  for (const auto& [name, n] : mixr.protocol_event_counts) {
    std::cout << " " << name;
  }
  const auto filt = core::compute_filtering(dataset, events, pre);
  std::cout << "\nFine-grained filter coverage: "
            << (filt.coverage.empty()
                    ? std::string("n/a")
                    : util::fmt_percent(filt.coverage.front(), 1))
            << " of the event's packets match known amplification ports —\n"
            << "an ACL on those ports would have spared the legitimate "
               "HTTPS flows the blackhole discarded.\n";
  return 0;
}
