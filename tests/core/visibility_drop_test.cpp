#include <gtest/gtest.h>

#include "core/drop_rate.hpp"
#include "core/visibility.hpp"
#include "corpus.hpp"

namespace bw::core {
namespace {

using testutil::World;

TEST(VisibilityTest, FullDistributionMeansNothingMissed) {
  World world({0, util::kDay}, 0);
  const net::Ipv4 victim(24, 0, 0, 1);
  bgp::UpdateLog control;
  control.push_back(world.platform->service().make_announce(
      0, World::kVictimAsn, 50000, net::Prefix::host(victim)));
  const Dataset dataset = world.run(std::move(control), {});

  const auto report = compute_visibility(dataset,
                                         dataset.period().length() > 0
                                             ? std::vector<bgp::Asn>{200, 300}
                                             : std::vector<bgp::Asn>{},
                                         util::kHour);
  ASSERT_FALSE(report.series.empty());
  for (const auto& p : report.series) {
    EXPECT_EQ(p.missed_median, 0.0);
    EXPECT_EQ(p.missed_max, 0.0);
  }
}

TEST(VisibilityTest, SenderMissesOwnRoutes) {
  World world({0, util::kDay}, 0);
  bgp::UpdateLog control;
  control.push_back(world.platform->service().make_announce(
      0, World::kVictimAsn, 50000,
      net::Prefix::host(net::Ipv4(24, 0, 0, 1))));
  const Dataset dataset = world.run(std::move(control), {});
  const std::vector<bgp::Asn> peers{World::kVictimAsn, 200, 300};
  const auto report = compute_visibility(dataset, peers, util::kHour);
  // The announcing peer does not see its own blackhole: 1 of 1 missed for
  // it, 0 for everyone else -> max = 1, median = 0.
  EXPECT_DOUBLE_EQ(report.overall_missed_max, 1.0);
  EXPECT_DOUBLE_EQ(report.overall_missed_median_peak, 0.0);
}

TEST(VisibilityTest, TargetedAnnouncementCreatesMissedShare) {
  World world({0, util::kDay}, 0);
  bgp::UpdateLog control;
  // Two plain blackholes plus one excluding peer 200.
  control.push_back(world.platform->service().make_announce(
      0, World::kVictimAsn, 50000, net::Prefix::host(net::Ipv4(24, 0, 0, 1))));
  control.push_back(world.platform->service().make_announce(
      0, World::kVictimAsn, 50000, net::Prefix::host(net::Ipv4(24, 0, 0, 2))));
  control.push_back(world.platform->service().make_announce(
      0, World::kVictimAsn, 50000, net::Prefix::host(net::Ipv4(24, 0, 0, 3)),
      {bgp::Community{0, 200}}));
  const Dataset dataset = world.run(std::move(control), {});

  const std::vector<bgp::Asn> peers{200, 300, 400, 500};
  const auto report = compute_visibility(dataset, peers, util::kHour);
  ASSERT_FALSE(report.series.empty());
  const auto& p = report.series[1];
  EXPECT_EQ(p.announced, 3u);
  EXPECT_NEAR(p.missed_max, 1.0 / 3.0, 1e-9);  // peer 200 misses 1 of 3
  EXPECT_DOUBLE_EQ(p.missed_median, 0.0);
}

TEST(VisibilityTest, RouteServerAsnVoteTieGoesToTheSmallestAsn) {
  // One action community each for AS64500 and AS64600: a tied vote. Under
  // AS64500 the route server sends the first route to peer 1 only and the
  // {0, 64500} route to nobody, so peers 200 and 300 miss 2 of 3. Under
  // AS64600 they would miss only the second route, 1 of 3.
  for (const bool larger_first : {false, true}) {
    World world({0, util::kDay}, 0);
    auto& service = world.platform->service();
    // After the first sample, so every sample sees all three or none.
    const util::TimeMs t64500 = (larger_first ? 2 : 1) * util::kMinute;
    const util::TimeMs t64600 = (larger_first ? 1 : 2) * util::kMinute;
    bgp::UpdateLog control;
    control.push_back(service.make_announce(
        t64500, World::kVictimAsn, 50000,
        net::Prefix::host(net::Ipv4(24, 0, 0, 1)), {bgp::Community{64500, 1}}));
    control.push_back(service.make_announce(
        t64600, World::kVictimAsn, 50000,
        net::Prefix::host(net::Ipv4(24, 0, 0, 2)), {bgp::Community{64600, 1}}));
    control.push_back(service.make_announce(
        3 * util::kMinute, World::kVictimAsn, 50000,
        net::Prefix::host(net::Ipv4(24, 0, 0, 3)), {bgp::Community{0, 64500}}));
    const Dataset dataset = world.run(std::move(control), {});

    const auto report = compute_visibility(dataset, {200, 300}, util::kHour);
    EXPECT_NEAR(report.overall_missed_max, 2.0 / 3.0, 1e-9)
        << (larger_first ? "AS64600 first" : "AS64500 first");
  }
}

class DropRateTest : public ::testing::Test {
 protected:
  DropRateTest() : world_({0, util::kDay}, 0) {}

  Dataset make_dataset() {
    const net::Ipv4 v32(24, 0, 0, 1);
    bgp::UpdateLog control;
    // /32 blackhole hours 1-5.
    control.push_back(world_.platform->service().make_announce(
        util::kHour, World::kVictimAsn, 50000, net::Prefix::host(v32)));
    control.push_back(world_.platform->service().make_withdraw(
        5 * util::kHour, World::kVictimAsn, 50000, net::Prefix::host(v32)));
    // /24 blackhole hours 1-5 for a different subnet.
    const auto p24 = *net::Prefix::parse("24.0.1.0/24");
    control.push_back(world_.platform->service().make_announce(
        util::kHour, World::kVictimAsn, 50000, p24));
    control.push_back(world_.platform->service().make_withdraw(
        5 * util::kHour, World::kVictimAsn, 50000, p24));

    std::vector<flow::TrafficBurst> bursts;
    const util::TimeRange active{util::kHour, 5 * util::kHour};
    // /32: 600 packets via acceptor (dropped), 400 via rejector (forwarded).
    bursts.push_back(world_.burst(net::Ipv4(64, 0, 0, 1), v32,
                                  net::Proto::kUdp, 123, 4444, active, 600,
                                  world_.acceptor));
    bursts.push_back(world_.burst(net::Ipv4(64, 1, 0, 1), v32,
                                  net::Proto::kUdp, 123, 4444, active, 400,
                                  world_.rejector));
    // /24: both peers accept (classful-only passes /24): all dropped.
    bursts.push_back(world_.burst(net::Ipv4(64, 1, 0, 2),
                                  net::Ipv4(24, 0, 1, 7), net::Proto::kUdp,
                                  123, 4444, active, 200, world_.rejector));
    return world_.run(std::move(control), bursts);
  }

  World world_;
};

TEST_F(DropRateTest, PerLengthRates) {
  const Dataset dataset = make_dataset();
  const auto events =
      merge_events(dataset.blackhole_updates(), dataset.period().end);
  ASSERT_EQ(events.size(), 2u);
  const auto report = compute_drop_rates(dataset, events);

  ASSERT_EQ(report.by_length.size(), 2u);
  const auto& len24 = report.by_length[0];
  const auto& len32 = report.by_length[1];
  EXPECT_EQ(len24.length, 24);
  EXPECT_EQ(len32.length, 32);
  EXPECT_EQ(len32.packets_total, 1000u);
  EXPECT_NEAR(len32.packet_drop_rate(), 0.6, 1e-9);
  EXPECT_EQ(len24.packets_total, 200u);
  EXPECT_NEAR(len24.packet_drop_rate(), 1.0, 1e-9);
  EXPECT_NEAR(report.traffic_share(32), 1000.0 / 1200.0, 1e-9);

  ASSERT_EQ(report.event_rates_len32.size(), 1u);
  EXPECT_NEAR(report.event_rates_len32[0], 0.6, 1e-9);
  ASSERT_EQ(report.event_rates_len24.size(), 1u);
  EXPECT_NEAR(report.event_rates_len24[0], 1.0, 1e-9);
}

TEST_F(DropRateTest, SourceAsAttribution) {
  const Dataset dataset = make_dataset();
  const auto events =
      merge_events(dataset.blackhole_updates(), dataset.period().end);
  const auto report = compute_drop_rates(dataset, events);

  ASSERT_EQ(report.sources_to_len32.size(), 2u);
  // Acceptor (600 pkts, all dropped) leads; rejector (400, none dropped).
  EXPECT_EQ(report.sources_to_len32[0].asn, World::kAcceptorAsn);
  EXPECT_NEAR(report.sources_to_len32[0].drop_share(), 1.0, 1e-9);
  EXPECT_EQ(report.sources_to_len32[1].asn, World::kRejectorAsn);
  EXPECT_NEAR(report.sources_to_len32[1].drop_share(), 0.0, 1e-9);

  const auto summary = summarize_top_sources(report, 100);
  EXPECT_EQ(summary.considered, 2u);
  EXPECT_EQ(summary.full_droppers, 1u);
  EXPECT_EQ(summary.full_forwarders, 1u);
  EXPECT_EQ(summary.inconsistent, 0u);
  EXPECT_DOUBLE_EQ(summary.traffic_share_of_total, 1.0);
}

TEST_F(DropRateTest, TypedTopSources) {
  const Dataset dataset = make_dataset();
  const auto events =
      merge_events(dataset.blackhole_updates(), dataset.period().end);
  const auto report = compute_drop_rates(dataset, events);

  pdb::Registry registry;
  registry.upsert({.asn = World::kAcceptorAsn, .type = pdb::OrgType::kContent});
  // Rejector intentionally not in PeeringDB -> Unknown.
  const auto rows = type_top_sources(report, registry, 100);
  ASSERT_EQ(rows.size(), 2u);
  std::size_t droppers = 0;
  for (const auto& r : rows) {
    if (r.type == pdb::OrgType::kContent) {
      EXPECT_EQ(r.droppers, 1u);
    }
    if (r.type == pdb::OrgType::kUnknown) {
      EXPECT_EQ(r.others, 1u);
    }
    droppers += r.droppers;
  }
  EXPECT_EQ(droppers, 1u);
}

TEST_F(DropRateTest, MinSamplesGuardsEventRates) {
  const Dataset dataset = make_dataset();
  const auto events =
      merge_events(dataset.blackhole_updates(), dataset.period().end);
  DropRateConfig cfg;
  cfg.min_event_samples = 100000;  // nothing qualifies
  const auto report = compute_drop_rates(dataset, events, cfg);
  EXPECT_TRUE(report.event_rates_len32.empty());
  EXPECT_TRUE(report.event_rates_len24.empty());
}

}  // namespace
}  // namespace bw::core
