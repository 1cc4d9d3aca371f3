// Tests for the bilateral ("other RTBH sources") blackholing model:
// private drops require peer support, and private-only mitigations leave
// data-plane drops with no route-server footprint.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/flow_view.hpp"
#include "core/pipeline.hpp"
#include "gen/scenario.hpp"

namespace bw::gen {
namespace {

TEST(PrivateBlackholeTest, PrivateOnlyEventsHaveNoControlRecord) {
  ScenarioConfig cfg;
  cfg.scale = 0.03;
  cfg.seed = 31337;
  cfg.private_only_fraction = 0.25;  // exaggerate for the test
  ixp::Platform platform(Scenario::platform_config(cfg));
  Scenario scenario(cfg);
  scenario.install(platform);

  std::size_t private_only = 0;
  std::size_t with_rs_overlap = 0;
  for (const auto& ev : scenario.truth().events) {
    if (!ev.private_only) continue;
    ++private_only;
    EXPECT_TRUE(ev.has_attack);
    EXPECT_TRUE(ev.privately_blackholed);
    EXPECT_EQ(ev.announcements, 0u);
    // No route-server update for this prefix inside the private window.
    // (The same victim may be RS-blackholed in *other*, disjoint events.)
    bool overlap = false;
    for (const auto& u : scenario.control()) {
      if (u.prefix == ev.prefix && ev.rtbh_span.contains(u.time)) {
        overlap = true;
        break;
      }
    }
    if (overlap) ++with_rs_overlap;
  }
  EXPECT_GT(private_only, 5u);
  // Victim reuse can place an RS event inside a private window, but only
  // rarely.
  EXPECT_LE(with_rs_overlap, private_only / 5);
}

TEST(PrivateBlackholeTest, PrivateOnlyDropsAppearOnDataPlane) {
  ScenarioConfig cfg;
  cfg.scale = 0.03;
  cfg.seed = 31337;
  cfg.private_only_fraction = 0.25;
  const core::ScenarioRun run = core::run_scenario(cfg, std::string{});

  // Find a private-only victim and check for unexplained drops.
  std::size_t victims_with_drops = 0;
  std::size_t checked = 0;
  for (const auto& ev : run.truth.events) {
    if (!ev.private_only || checked >= 20) continue;
    ++checked;
    std::uint64_t dropped = 0;
    run.dataset.view().for_each_dst_row(
        ev.prefix, ev.rtbh_span,
        [&](const flow::FlowColumns& cols, std::size_t i) {
          if (!cols.dropped(i)) return;
          ++dropped;
          // No route-server blackhole explains this drop.
          EXPECT_FALSE(run.dataset.rs_index().announced_at(
              net::Ipv4(cols.dst_ip[i]), cols.time[i] + 40));
        });
    if (dropped > 0) ++victims_with_drops;
  }
  EXPECT_GT(victims_with_drops, checked / 2);
}

TEST(PrivateBlackholeTest, StockPeersNeverSeePrivateDrops) {
  // A world where every peer is stock-configured: private blackholes have
  // no session to live on, so nothing at all is dropped.
  ScenarioConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = 7;
  cfg.policy_accept_all = 0.0;
  cfg.policy_whitelist_host = 0.0;
  cfg.policy_classful_only = 1.0;
  cfg.policy_reject_all = 0.0;
  cfg.policy_inconsistent = 0.0;
  cfg.private_blackhole_fraction = 1.0;  // every attack privately shadowed
  cfg.private_only_fraction = 0.0;
  cfg.event_len32 = 1.0;  // only host routes, which nobody accepts
  cfg.event_len24 = cfg.event_len25_31 = cfg.event_len22_23 = 0.0;
  // Squatting-protection RTBHs are <= /24 — stock classful-only peers
  // accept those by design, so remove them from this no-drop world.
  cfg.squatting_prefixes = 0;
  const core::ScenarioRun run = core::run_scenario(cfg, std::string{});
  const auto s = run.dataset.summary();
  EXPECT_EQ(s.dropped_packets, 0u)
      << "no peer accepts host routes, so neither RS nor bilateral "
         "blackholes can drop";
}

}  // namespace
}  // namespace bw::gen
