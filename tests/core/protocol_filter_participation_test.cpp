#include <gtest/gtest.h>

#include "core/filtering.hpp"
#include "core/participation.hpp"
#include "core/protocol_mix.hpp"
#include "corpus.hpp"

namespace bw::core {
namespace {

using testutil::World;

// Fixture with two attack events (anomaly before RTBH) and one quiet event:
//  e1: pure NTP+DNS amplification (fully filterable)
//  e2: UDP random-port flood (not filterable by amp ports)
//  e3: no attack, no anomaly (must be excluded from all three analyses)
class AttackAnalysisTest : public ::testing::Test {
 protected:
  AttackAnalysisTest() : world_({0, util::days(8)}, 0) {}

  void add_event(bgp::UpdateLog& control, net::Ipv4 victim, util::TimeMs t0) {
    control.push_back(world_.platform->service().make_announce(
        t0, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    control.push_back(world_.platform->service().make_withdraw(
        t0 + util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
  }

  Dataset make_dataset() {
    const util::TimeMs t0 = util::days(5);
    bgp::UpdateLog control;
    std::vector<flow::TrafficBurst> bursts;
    const net::Ipv4 v1(24, 0, 0, 1);
    const net::Ipv4 v2(24, 0, 0, 2);
    const net::Ipv4 v3(24, 0, 0, 3);
    add_event(control, v1, t0);
    add_event(control, v2, t0);
    add_event(control, v3, t0);

    const util::TimeRange attack{t0 - 8 * util::kMinute,
                                 t0 + 40 * util::kMinute};
    // e1: NTP (60%) + DNS (40%) reflection from distinct amplifiers in two
    // origins (64.0 -> acceptor, 64.1 -> rejector).
    for (int a = 0; a < 12; ++a) {
      bursts.push_back(world_.burst(
          net::Ipv4(64, 0, 2, static_cast<std::uint8_t>(a)), v1,
          net::Proto::kUdp, 123, 40000, attack, 3000, world_.acceptor));
    }
    for (int a = 0; a < 8; ++a) {
      bursts.push_back(world_.burst(
          net::Ipv4(64, 1, 2, static_cast<std::uint8_t>(a)), v1,
          net::Proto::kUdp, 53, 40001, attack, 3000, world_.rejector));
    }
    // e2: random high ports, spoofed sources (no origin attribution).
    for (int a = 0; a < 20; ++a) {
      bursts.push_back(world_.burst(
          net::Ipv4(192, 0, 3, static_cast<std::uint8_t>(a)), v2,
          net::Proto::kUdp, static_cast<net::Port>(20000 + 211 * a),
          static_cast<net::Port>(1000 + 97 * a), attack, 3000,
          world_.acceptor));
    }
    // e3: just a little steady traffic well before the event.
    for (int day = 0; day < 6; ++day) {
      bursts.push_back(world_.burst(
          net::Ipv4(64, 0, 0, 9), v3, net::Proto::kTcp, 55555, 443,
          {day * util::kDay, day * util::kDay + util::kHour}, 8,
          world_.acceptor));
    }
    return world_.run(std::move(control), bursts);
  }

  World world_;
};

TEST_F(AttackAnalysisTest, ProtocolMixIdentifiesAmplification) {
  const Dataset dataset = make_dataset();
  const auto events =
      merge_events(dataset.blackhole_updates(), dataset.period().end);
  ASSERT_EQ(events.size(), 3u);
  const auto pre = compute_pre_rtbh(dataset, events);
  EXPECT_EQ(pre.data_anomaly_10m, 2u);

  const auto mix = compute_protocol_mix(dataset, events, pre);
  EXPECT_EQ(mix.events_considered, 2u);
  EXPECT_GT(mix.udp_share, 0.99);
  EXPECT_LT(mix.tcp_share, 0.01);
  // e1 has exactly two amplification protocols, e2 none.
  EXPECT_EQ(mix.amp_protocol_events[2], 1u);
  EXPECT_EQ(mix.amp_protocol_events[0], 1u);
  bool saw_ntp = false;
  bool saw_dns = false;
  for (const auto& [name, count] : mix.protocol_event_counts) {
    if (name == "NTP") saw_ntp = count == 1;
    if (name == "DNS") saw_dns = count == 1;
  }
  EXPECT_TRUE(saw_ntp);
  EXPECT_TRUE(saw_dns);
}

TEST_F(AttackAnalysisTest, FilteringCoverage) {
  const Dataset dataset = make_dataset();
  const auto events =
      merge_events(dataset.blackhole_updates(), dataset.period().end);
  const auto pre = compute_pre_rtbh(dataset, events);
  const auto filt = compute_filtering(dataset, events, pre);
  ASSERT_EQ(filt.coverage.size(), 2u);
  // One event fully coverable, one not at all.
  const double lo = std::min(filt.coverage[0], filt.coverage[1]);
  const double hi = std::max(filt.coverage[0], filt.coverage[1]);
  EXPECT_LT(lo, 0.05);
  EXPECT_GT(hi, 0.95);
  EXPECT_NEAR(filt.fully_filterable_fraction, 0.5, 1e-9);
}

TEST_F(AttackAnalysisTest, ParticipationAttribution) {
  const Dataset dataset = make_dataset();
  const auto events =
      merge_events(dataset.blackhole_updates(), dataset.period().end);
  const auto pre = compute_pre_rtbh(dataset, events);
  const auto part = compute_participation(dataset, events, pre);

  // Only e1 carries amplification traffic.
  EXPECT_EQ(part.attacks, 1u);
  EXPECT_NEAR(part.avg_amplifiers_per_attack, 20.0, 0.1);
  EXPECT_NEAR(part.avg_handover_per_attack, 2.0, 0.1);
  EXPECT_NEAR(part.avg_origins_per_attack, 2.0, 0.1);
  ASSERT_EQ(part.handover.size(), 2u);
  EXPECT_DOUBLE_EQ(part.handover[0].event_share, 1.0);
  ASSERT_EQ(part.origins.size(), 2u);
  for (const auto& o : part.origins) {
    EXPECT_TRUE(o.asn == 210000 || o.asn == 210001);
    EXPECT_DOUBLE_EQ(o.event_share, 1.0);
  }
  // Traffic shares sum to ~1 across origins.
  double share = 0.0;
  for (const auto& o : part.origins) share += o.traffic_share;
  EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST(ParticipationRankingTest, TiedSharesRankByAscendingAsn) {
  // Two amplification attacks on v1 and v2. All 24 amplifiers hit v1; the
  // even-numbered ones also hit v2. Each amplifier has its own handover AS
  // and its own origin AS, so both lists hold a run of 12 ASes at share 1.0
  // and a run of 12 at share 0.5. The ASNs are a scrambled permutation, so
  // no container's iteration order yields the ranking by accident.
  constexpr int kAses = 24;
  const net::Ipv4 v1(24, 0, 0, 1);
  const net::Ipv4 v2(24, 0, 0, 2);
  std::unordered_map<net::Mac, bgp::Asn> macs;
  std::vector<std::pair<net::Prefix, bgp::Asn>> origins;
  flow::FlowLog flows;
  for (int i = 0; i < kAses; ++i) {
    const auto asn = static_cast<bgp::Asn>(64512 + (i * 7) % kAses);
    const net::Mac mac(0x020000000000ULL + static_cast<std::uint64_t>(i));
    const net::Ipv4 amplifier(64, static_cast<std::uint8_t>(i), 0, 1);
    macs[mac] = asn;
    origins.emplace_back(net::Prefix(amplifier, 16), asn + 1000);
    for (const net::Ipv4 victim : {v1, v2}) {
      if (victim == v2 && i % 2 == 1) continue;
      flow::FlowRecord r;
      r.time = util::kHour + i;
      r.src_ip = amplifier;
      r.dst_ip = victim;
      r.proto = net::Proto::kUdp;
      r.src_port = 123;
      r.dst_port = 40000;
      r.src_mac = mac;
      r.dst_mac = mac;
      r.packets = static_cast<std::uint32_t>(1 + i);
      flows.push_back(r);
    }
  }
  const Dataset dataset({}, std::move(flows), std::move(macs),
                        std::move(origins), {0, util::days(1)});
  std::vector<RtbhEvent> events(2);
  events[0].prefix = net::Prefix::host(v1);
  events[1].prefix = net::Prefix::host(v2);
  PreRtbhReport pre;
  pre.per_event.resize(2);
  for (std::size_t e = 0; e < 2; ++e) {
    events[e].span = {0, 2 * util::kHour};
    events[e].active = {events[e].span};
    pre.per_event[e].anomaly_within_10min = true;
  }

  const auto expect_ranked = [](const std::vector<AsParticipation>& rows) {
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(kAses));
    for (std::size_t k = 0; k < rows.size(); ++k) {
      EXPECT_DOUBLE_EQ(rows[k].event_share, k < kAses / 2 ? 1.0 : 0.5);
      if (k > 0 && rows[k].event_share == rows[k - 1].event_share) {
        EXPECT_LT(rows[k - 1].asn, rows[k].asn) << "row " << k;
      }
    }
  };
  const auto part = compute_participation(dataset, events, pre);
  EXPECT_EQ(part.attacks, 2u);
  expect_ranked(part.handover);
  expect_ranked(part.origins);
  EXPECT_EQ(part.handover.front().asn, 64512u);
  EXPECT_EQ(part.origins.front().asn, 65512u);
}

}  // namespace
}  // namespace bw::core
