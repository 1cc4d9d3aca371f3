#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/pipeline.hpp"
#include "corpus.hpp"
#include "obs/metrics.hpp"

namespace bw::core {
namespace {

using testutil::World;

class MonitorTest : public ::testing::Test {
 protected:
  MonitorConfig default_config() {
    MonitorConfig cfg;
    cfg.ewma.window = 48;  // 4 h baseline so small tests can fill it
    return cfg;
  }

  std::vector<Alert> alerts_;
  RtbhMonitor make_monitor(MonitorConfig cfg) {
    return RtbhMonitor(cfg, [this](const Alert& a) { alerts_.push_back(a); });
  }

  [[nodiscard]] std::size_t count(AlertKind kind) const {
    std::size_t n = 0;
    for (const auto& a : alerts_) {
      if (a.kind == kind) ++n;
    }
    return n;
  }

  static bgp::Update announce(util::TimeMs t, net::Ipv4 ip) {
    ixp::BlackholeService svc;
    return svc.make_announce(t, 64500, 65000, net::Prefix::host(ip));
  }
  static bgp::Update withdraw(util::TimeMs t, net::Ipv4 ip) {
    ixp::BlackholeService svc;
    return svc.make_withdraw(t, 64500, 65000, net::Prefix::host(ip));
  }
  static flow::FlowRecord sample(util::TimeMs t, net::Ipv4 dst, bool dropped,
                                 net::Ipv4 src = net::Ipv4(16, 0, 0, 1),
                                 net::Port dst_port = 443) {
    flow::FlowRecord r;
    r.time = t;
    r.src_ip = src;
    r.dst_ip = dst;
    r.proto = net::Proto::kUdp;
    r.src_port = 123;
    r.dst_port = dst_port;
    r.src_mac = net::Mac::for_member_port(1);
    r.dst_mac = dropped ? net::Mac::blackhole() : net::Mac::for_member_port(2);
    return r;
  }
};

TEST_F(MonitorTest, EventLifecycle) {
  auto monitor = make_monitor(default_config());
  const net::Ipv4 victim(24, 0, 0, 1);
  monitor.on_update(announce(util::kHour, victim));
  EXPECT_EQ(monitor.active_events(), 1u);
  EXPECT_EQ(count(AlertKind::kEventStarted), 1u);

  // On/off churn within the merge delta stays one event.
  monitor.on_update(withdraw(util::kHour + util::minutes(5.0), victim));
  monitor.on_update(announce(util::kHour + util::minutes(7.0), victim));
  monitor.on_update(withdraw(util::kHour + util::minutes(20.0), victim));
  EXPECT_EQ(count(AlertKind::kEventStarted), 1u);
  EXPECT_EQ(monitor.total_events(), 1u);

  // Past the merge delta the event closes.
  monitor.advance(util::kHour + util::minutes(40.0));
  EXPECT_EQ(count(AlertKind::kEventEnded), 1u);
  EXPECT_EQ(monitor.active_events(), 0u);

  // A later announcement opens a new event.
  monitor.on_update(announce(5 * util::kHour, victim));
  EXPECT_EQ(monitor.total_events(), 2u);
}

TEST_F(MonitorTest, AttackCorrelationAlert) {
  auto cfg = default_config();
  auto monitor = make_monitor(cfg);
  const net::Ipv4 victim(24, 0, 0, 2);
  // Quiet baseline: one sample per slot for 48+ slots.
  for (int s = 0; s < 60; ++s) {
    monitor.on_flow(sample(s * cfg.slot + 1000, victim, false));
  }
  // Burst in the two slots before the announcement, many sources/ports.
  const util::TimeMs burst_start = 60 * cfg.slot;
  for (int i = 0; i < 200; ++i) {
    monitor.on_flow(sample(burst_start + i * 1000, victim, false,
                           net::Ipv4(64, 0, 0, static_cast<std::uint8_t>(i)),
                           static_cast<net::Port>(30000 + i)));
  }
  monitor.on_update(announce(burst_start + 6 * util::kMinute, victim));
  EXPECT_EQ(count(AlertKind::kAttackCorrelated), 1u);
  const auto& alert = alerts_.back();
  EXPECT_GE(alert.value, 3.0) << "burst should spike several features";
}

TEST_F(MonitorTest, NoAttackAlertWithoutAnomaly) {
  auto cfg = default_config();
  auto monitor = make_monitor(cfg);
  const net::Ipv4 victim(24, 0, 0, 3);
  for (int s = 0; s < 60; ++s) {
    monitor.on_flow(sample(s * cfg.slot + 1000, victim, false));
  }
  monitor.on_update(announce(60 * cfg.slot, victim));
  EXPECT_EQ(count(AlertKind::kAttackCorrelated), 0u);
}

TEST_F(MonitorTest, LowDropRateAlert) {
  auto cfg = default_config();
  cfg.min_drop_samples = 20;
  auto monitor = make_monitor(cfg);
  const net::Ipv4 victim(24, 0, 0, 4);
  monitor.on_update(announce(util::kHour, victim));
  // 30 samples, only 20% dropped.
  for (int i = 0; i < 30; ++i) {
    monitor.on_flow(
        sample(util::kHour + 1000 + i * 100, victim, i % 5 == 0));
  }
  EXPECT_EQ(count(AlertKind::kLowDropRate), 1u);
  EXPECT_LT(alerts_.back().value, 0.5);
}

TEST_F(MonitorTest, NoLowDropAlertWhenDropping) {
  auto cfg = default_config();
  cfg.min_drop_samples = 20;
  auto monitor = make_monitor(cfg);
  const net::Ipv4 victim(24, 0, 0, 5);
  monitor.on_update(announce(util::kHour, victim));
  for (int i = 0; i < 30; ++i) {
    monitor.on_flow(sample(util::kHour + 1000 + i * 100, victim, true));
  }
  EXPECT_EQ(count(AlertKind::kLowDropRate), 0u);
}

TEST_F(MonitorTest, ZombieSuspectAlert) {
  auto cfg = default_config();
  auto monitor = make_monitor(cfg);
  const net::Ipv4 victim(24, 0, 0, 6);
  monitor.on_update(announce(util::kHour, victim));
  monitor.advance(util::kHour + 3 * util::kDay);  // silence for days
  EXPECT_EQ(count(AlertKind::kZombieSuspect), 1u);
  // Only alerted once.
  monitor.advance(util::kHour + 5 * util::kDay);
  EXPECT_EQ(count(AlertKind::kZombieSuspect), 1u);
}

TEST_F(MonitorTest, BusyBlackholeIsNotZombie) {
  auto cfg = default_config();
  auto monitor = make_monitor(cfg);
  const net::Ipv4 victim(24, 0, 0, 7);
  monitor.on_update(announce(util::kHour, victim));
  for (int i = 0; i < 100; ++i) {
    monitor.on_flow(sample(util::kHour + i * util::kMinute, victim, true));
  }
  monitor.advance(util::kHour + 3 * util::kDay);
  EXPECT_EQ(count(AlertKind::kZombieSuspect), 0u);
}

// A flow into a /24 nested in a tracked /22 belongs to the /24, whichever
// of the two was announced first: the /24 collects the packets, and only
// the silent /22 is a zombie suspect.
class NestedPrefixTest : public MonitorTest,
                         public ::testing::WithParamInterface<bool> {};

TEST_P(NestedPrefixTest, FlowChargedToLongestCoveringPrefix) {
  const bool narrow_first = GetParam();
  auto monitor = make_monitor(default_config());
  ixp::BlackholeService svc;
  const net::Prefix wide(net::Ipv4(24, 0, 0, 0), 22);
  const net::Prefix narrow(net::Ipv4(24, 0, 1, 0), 24);
  for (const auto& prefix : narrow_first ? std::vector{narrow, wide}
                                         : std::vector{wide, narrow}) {
    monitor.on_update(svc.make_announce(util::kHour, 64500, 65000, prefix));
  }
  const net::Ipv4 host(24, 0, 1, 5);
  for (int i = 0; i < 20; ++i) {
    monitor.on_flow(sample(util::kHour + i * util::kMinute, host, true));
  }
  monitor.advance(util::kHour + 3 * util::kDay);
  ASSERT_EQ(count(AlertKind::kZombieSuspect), 1u);
  for (const auto& a : alerts_) {
    if (a.kind == AlertKind::kZombieSuspect) {
      EXPECT_EQ(a.prefix, wide);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AnnounceOrder, NestedPrefixTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& order) {
                           return order.param ? "NarrowFirst" : "WideFirst";
                         });

TEST_F(MonitorTest, SweepSkipsMinutesWithNothingDue) {
  // One open event that can neither end (still announced) nor turn zombie
  // (enough packets): three days of once-a-minute traffic elsewhere must
  // not visit it every minute. At most the sweep at its original zombie
  // deadline looks at it, and that sweep finds nothing left due.
  auto monitor = make_monitor(default_config());
  auto& registry = obs::Registry::global();
  const std::uint64_t sweeps0 = registry.counter("monitor.sweeps").value();
  const std::uint64_t visits0 =
      registry.counter("monitor.sweep_visits").value();
  const net::Ipv4 victim(24, 0, 0, 9);
  monitor.on_update(announce(util::kHour, victim));
  for (int i = 0; i < 20; ++i) {
    monitor.on_flow(sample(util::kHour + i * util::kSecond, victim, true));
  }
  const int minutes = 3 * 24 * 60;
  for (int m = 1; m <= minutes; ++m) {
    monitor.on_flow(sample(util::kHour + m * util::kMinute,
                           net::Ipv4(24, 1, 0, static_cast<std::uint8_t>(m)),
                           false));
  }
  EXPECT_EQ(monitor.active_events(), 1u);
  EXPECT_EQ(count(AlertKind::kZombieSuspect), 0u);
  EXPECT_LE(registry.counter("monitor.sweep_visits").value() - visits0, 1u);
  EXPECT_LE(registry.counter("monitor.sweeps").value() - sweeps0, 1u);

  // A withdrawal makes the event due again: it ends on schedule.
  const util::TimeMs withdrawn = util::kHour + (minutes + 1) * util::kMinute;
  monitor.on_update(withdraw(withdrawn, victim));
  for (int m = 1; m <= 30; ++m) {
    monitor.on_flow(sample(withdrawn + m * util::kMinute,
                           net::Ipv4(24, 2, 0, static_cast<std::uint8_t>(m)),
                           false));
    const bool past_merge = m * util::kMinute > default_config().merge_delta;
    ASSERT_EQ(count(AlertKind::kEventEnded), past_merge ? 1u : 0u)
        << "minute " << m;
  }
  EXPECT_GE(registry.counter("monitor.sweeps").value() - sweeps0, 1u);
}

TEST_F(MonitorTest, UnboundedDelaysNeverComeDue) {
  // Delays at the top of the time range mean "never": the due time of an
  // open event saturates instead of overflowing, and no check fires.
  auto cfg = default_config();
  cfg.zombie_after = std::numeric_limits<util::DurationMs>::max();
  cfg.merge_delta = std::numeric_limits<util::DurationMs>::max();
  auto monitor = make_monitor(cfg);
  const net::Ipv4 zombie(24, 0, 0, 10);
  const net::Ipv4 withdrawn(24, 0, 0, 11);
  monitor.on_update(announce(util::kHour, zombie));
  monitor.on_update(announce(util::kHour, withdrawn));
  monitor.on_update(withdraw(2 * util::kHour, withdrawn));
  monitor.advance(util::days(30));
  EXPECT_EQ(count(AlertKind::kZombieSuspect), 0u);
  EXPECT_EQ(count(AlertKind::kEventEnded), 0u);
  EXPECT_EQ(monitor.active_events(), 2u);
}

TEST_F(MonitorTest, FinishClosesOpenEvents) {
  auto monitor = make_monitor(default_config());
  const net::Ipv4 victim(24, 0, 0, 8);
  monitor.on_update(announce(util::kHour, victim));
  monitor.on_update(withdraw(2 * util::kHour, victim));
  monitor.finish(util::days(1));
  EXPECT_EQ(count(AlertKind::kEventEnded), 1u);
  EXPECT_EQ(monitor.active_events(), 0u);
}

TEST_F(MonitorTest, LruCapBoundsTrackedDestinations) {
  auto cfg = default_config();
  cfg.max_destinations = 16;
  auto monitor = make_monitor(cfg);
  // Idle traffic towards many distinct destinations: state must not grow
  // past the cap, and shedding idle (no-event) destinations is silent.
  for (int i = 0; i < 500; ++i) {
    monitor.on_flow(sample(util::kHour + i * 1000,
                           net::Ipv4(24, 0, static_cast<std::uint8_t>(i / 250),
                                     static_cast<std::uint8_t>(i % 250)),
                           false));
  }
  EXPECT_EQ(count(AlertKind::kEventEnded), 0u);
  EXPECT_EQ(monitor.active_events(), 0u);

  // Recency, not insertion order, decides the victim: keep touching one
  // early destination and it must survive (its detector history intact).
  const net::Ipv4 keeper(24, 0, 0, 0);
  auto cfg2 = default_config();
  cfg2.max_destinations = 4;
  alerts_.clear();
  auto monitor2 = make_monitor(cfg2);
  util::TimeMs t = util::kHour;
  monitor2.on_flow(sample(t, keeper, false));
  for (int i = 1; i < 100; ++i) {
    t += 1000;
    monitor2.on_flow(sample(t, net::Ipv4(24, 1, 0,
                                         static_cast<std::uint8_t>(i)),
                            false));
    t += 1000;
    monitor2.on_flow(sample(t, keeper, false));
  }
  // The keeper still has accumulated slot state: a burst plus announcement
  // can only correlate if its history survived every eviction round.
  monitor2.on_update(announce(t + 1000, keeper));
  EXPECT_EQ(count(AlertKind::kEventStarted), 1u);
  EXPECT_EQ(monitor2.active_events(), 1u);
}

TEST_F(MonitorTest, LruEvictionOfActiveEventEmitsFinalAlert) {
  auto cfg = default_config();
  cfg.max_destinations = 2;
  auto monitor = make_monitor(cfg);
  const net::Ipv4 victim(24, 0, 0, 9);
  monitor.on_update(announce(util::kHour, victim));
  EXPECT_EQ(monitor.active_events(), 1u);

  // Two fresh destinations push the still-open event out of the cap.
  monitor.on_flow(sample(util::kHour + 1000, net::Ipv4(24, 2, 0, 1), false));
  monitor.on_flow(sample(util::kHour + 2000, net::Ipv4(24, 2, 0, 2), false));

  // The open event must not vanish silently: exactly one final
  // event-ended alert, and the active set is consistent afterwards.
  EXPECT_EQ(count(AlertKind::kEventEnded), 1u);
  EXPECT_EQ(monitor.active_events(), 0u);
  bool saw_eviction_alert = false;
  for (const auto& a : alerts_) {
    if (a.kind == AlertKind::kEventEnded) {
      saw_eviction_alert = true;
      EXPECT_EQ(a.prefix, net::Prefix::host(victim));
      EXPECT_NE(a.message.find("evicted"), std::string::npos) << a.message;
    }
  }
  EXPECT_TRUE(saw_eviction_alert);
  // finish() must not double-close the evicted event.
  monitor.finish(2 * util::kHour);
  EXPECT_EQ(count(AlertKind::kEventEnded), 1u);
}

TEST_F(MonitorTest, ReannounceAfterEvictionStartsFreshEvent) {
  auto cfg = default_config();
  cfg.max_destinations = 2;
  cfg.min_drop_samples = 10;
  auto monitor = make_monitor(cfg);
  const net::Ipv4 victim(24, 0, 0, 10);
  monitor.on_update(announce(util::kHour, victim));
  // Poison the pre-eviction event with forwarded (non-dropped) traffic: if
  // its drop counters leaked into the next incarnation, the fresh event
  // below would instantly trip a bogus low-drop alert.
  for (int i = 0; i < 20; ++i) {
    monitor.on_flow(sample(util::kHour + i * 100, victim, false));
  }
  EXPECT_EQ(count(AlertKind::kEventStarted), 1u);
  EXPECT_EQ(count(AlertKind::kLowDropRate), 1u);

  // Fresh destinations push the still-open event out of the cap.
  monitor.on_flow(sample(util::kHour + 3000, net::Ipv4(24, 3, 0, 1), false));
  monitor.on_flow(sample(util::kHour + 4000, net::Ipv4(24, 3, 0, 2), false));
  EXPECT_EQ(count(AlertKind::kEventEnded), 1u);  // eviction closed it loudly
  EXPECT_EQ(monitor.active_events(), 0u);

  // The destination is re-announced after the eviction: a brand-new event
  // must start — fresh kEventStarted, fresh drop accounting — even though
  // the announce falls inside what would have been the old event's merge
  // window had the state survived.
  monitor.on_update(announce(util::kHour + util::minutes(3.0), victim));
  EXPECT_EQ(count(AlertKind::kEventStarted), 2u);
  EXPECT_EQ(monitor.total_events(), 2u);
  EXPECT_EQ(monitor.active_events(), 1u);

  // All traffic towards the reborn event drops: no low-drop alert may fire
  // off the pre-eviction forwarded packets.
  for (int i = 0; i < 20; ++i) {
    monitor.on_flow(
        sample(util::kHour + util::minutes(3.0) + i * 100, victim, true));
  }
  EXPECT_EQ(count(AlertKind::kLowDropRate), 1u) << "stale drop counters";
}

TEST_F(MonitorTest, WithdrawAfterEvictionThenReannounceStartsFreshEvent) {
  auto cfg = default_config();
  cfg.max_destinations = 2;
  auto monitor = make_monitor(cfg);
  const net::Ipv4 victim(24, 0, 0, 11);
  monitor.on_update(announce(util::kHour, victim));
  monitor.on_flow(sample(util::kHour + 1000, net::Ipv4(24, 4, 0, 1), false));
  monitor.on_flow(sample(util::kHour + 2000, net::Ipv4(24, 4, 0, 2), false));
  EXPECT_EQ(count(AlertKind::kEventEnded), 1u);  // evicted

  // The route's own withdraw arrives after the eviction: it refers to the
  // already-closed event, so it must neither alert nor resurrect anything.
  monitor.on_update(withdraw(util::kHour + util::minutes(2.0), victim));
  EXPECT_EQ(count(AlertKind::kEventEnded), 1u);
  EXPECT_EQ(monitor.active_events(), 0u);

  // Re-announce within the merge delta of that withdraw: the eviction cut
  // the event's history, so this is a new event, not a merge.
  monitor.on_update(announce(util::kHour + util::minutes(5.0), victim));
  EXPECT_EQ(count(AlertKind::kEventStarted), 2u);
  EXPECT_EQ(monitor.total_events(), 2u);
  EXPECT_EQ(monitor.active_events(), 1u);

  // And the reborn event still closes normally.
  monitor.on_update(withdraw(util::kHour + util::minutes(10.0), victim));
  monitor.advance(util::kHour + util::minutes(40.0));
  EXPECT_EQ(count(AlertKind::kEventEnded), 2u);
}

TEST_F(MonitorTest, AgreesWithOfflinePipelineOnScenario) {
  // Replay a small scenario chronologically through the monitor and check
  // that its event count matches the offline merge.
  gen::ScenarioConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = 5;
  const ScenarioRun run = run_scenario(cfg, std::string{});
  const auto offline = merge_events(run.dataset.blackhole_updates(),
                                    run.dataset.period().end);

  MonitorConfig mcfg;  // paper defaults (288-slot window)
  auto monitor = make_monitor(mcfg);
  // Merge-sort the two feeds by timestamp.
  const auto& updates = run.dataset.blackhole_updates();
  const auto& flows = run.dataset.flows();
  std::size_t ui = 0;
  std::size_t fi = 0;
  while (ui < updates.size() || fi < flows.size()) {
    const bool take_update =
        fi >= flows.size() ||
        (ui < updates.size() && updates[ui].time <= flows[fi].time);
    if (take_update) monitor.on_update(updates[ui++]);
    else monitor.on_flow(flows[fi++]);
  }
  monitor.finish(run.dataset.period().end);

  // The monitor's online event segmentation must track the offline one.
  const double ratio = static_cast<double>(monitor.total_events()) /
                       static_cast<double>(offline.size());
  EXPECT_GT(ratio, 0.95);
  EXPECT_LT(ratio, 1.05);
  EXPECT_GT(count(AlertKind::kAttackCorrelated), offline.size() / 10);
  EXPECT_GT(count(AlertKind::kZombieSuspect), 10u);
  EXPECT_GT(count(AlertKind::kLowDropRate), 10u);
}

TEST(MonitorNamesTest, AlertKindStrings) {
  EXPECT_EQ(to_string(AlertKind::kEventStarted), "event-started");
  EXPECT_EQ(to_string(AlertKind::kEventEnded), "event-ended");
  EXPECT_EQ(to_string(AlertKind::kAttackCorrelated), "attack-correlated");
  EXPECT_EQ(to_string(AlertKind::kLowDropRate), "low-drop-rate");
  EXPECT_EQ(to_string(AlertKind::kZombieSuspect), "zombie-suspect");
}

}  // namespace
}  // namespace bw::core
