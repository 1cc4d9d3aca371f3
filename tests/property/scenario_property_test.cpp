// Property tests over scenario generation and the end-to-end pipeline:
// invariants that must hold at every (scale, seed), plus exact determinism.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/pipeline.hpp"

namespace bw::core {
namespace {

class ScenarioPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(ScenarioPropertyTest, CorpusInvariants) {
  const auto [scale, seed] = GetParam();
  gen::ScenarioConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  const ScenarioRun run = run_scenario(cfg, std::string{});
  const Dataset& ds = run.dataset;

  // Control plane: sorted, all blackholes, all within the period.
  util::TimeMs prev = ds.period().begin;
  for (const auto& u : ds.control()) {
    EXPECT_GE(u.time, prev);
    prev = u.time;
    EXPECT_TRUE(u.is_blackhole());
    EXPECT_LE(u.time, ds.period().end);
  }

  // Data plane: sorted; every record's source MAC belongs to a member;
  // dropped records carry the blackhole MAC and nothing else does.
  prev = std::numeric_limits<util::TimeMs>::min();
  for (const auto& r : ds.flows()) {
    EXPECT_GE(r.time, prev);
    prev = r.time;
    EXPECT_TRUE(ds.member_asn(r.src_mac).has_value());
    if (!r.dropped()) {
      EXPECT_TRUE(ds.member_asn(r.dst_mac).has_value());
    }
  }

  // Merged events: spans ordered, actives inside span, within period.
  const auto events = merge_events(ds.blackhole_updates(), ds.period().end);
  EXPECT_FALSE(events.empty());
  for (const auto& ev : events) {
    EXPECT_LE(ev.span.begin, ev.span.end);
    EXPECT_GE(ev.announcements, 1u);
    EXPECT_EQ(ev.announcements, ev.active.size());
    for (const auto& a : ev.active) {
      EXPECT_GE(a.begin, ev.span.begin);
      EXPECT_LE(a.end, ev.span.end);
    }
  }

  // Events of the same prefix never overlap and respect the merge delta.
  std::unordered_map<std::uint64_t, util::TimeMs> last_end;
  std::vector<const RtbhEvent*> by_prefix(events.size());
  for (const auto& ev : events) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(ev.prefix.network().value()) << 8) |
        ev.prefix.length();
    const auto it = last_end.find(key);
    if (it != last_end.end()) {
      EXPECT_GT(ev.span.begin - it->second, kDefaultMergeDelta)
          << ev.prefix.to_string();
    }
    last_end[key] = std::max(ev.span.end, it != last_end.end() ? it->second
                                                               : ev.span.end);
  }
}

TEST_P(ScenarioPropertyTest, SummaryStatisticsScaleSanely) {
  const auto [scale, seed] = GetParam();
  gen::ScenarioConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  const ScenarioRun run = run_scenario(cfg, std::string{});
  const auto s = run.dataset.summary();
  // Updates per scheduled event in a sane band at any scale.
  const double per_event =
      static_cast<double>(s.blackhole_updates) /
      static_cast<double>(run.truth.events.size());
  EXPECT_GT(per_event, 10.0);
  EXPECT_LT(per_event, 40.0);
  // Some but not most of ALL sampled packets die (the blackholed share of
  // total traffic swings with the attack/legit volume ratio at small
  // scales; the per-length rates are asserted elsewhere).
  const double dropped = static_cast<double>(s.dropped_packets) /
                         static_cast<double>(s.sampled_packets);
  EXPECT_GT(dropped, 0.05);
  EXPECT_LT(dropped, 0.65);
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndSeeds, ScenarioPropertyTest,
    ::testing::Values(std::make_tuple(0.01, 1ull), std::make_tuple(0.01, 2ull),
                      std::make_tuple(0.02, 7ull),
                      std::make_tuple(0.04, 42ull)));

TEST(PipelineDeterminismTest, IdenticalRunsProduceIdenticalReports) {
  gen::ScenarioConfig cfg;
  cfg.scale = 0.015;
  cfg.seed = 99;
  const ScenarioRun a = run_scenario(cfg, std::string{});
  const ScenarioRun b = run_scenario(cfg, std::string{});
  ASSERT_EQ(a.dataset.flows().size(), b.dataset.flows().size());
  ASSERT_EQ(a.dataset.control().size(), b.dataset.control().size());
  for (std::size_t i = 0; i < a.dataset.flows().size(); i += 97) {
    const flow::FlowRecord ra = a.dataset.flows()[i];
    const flow::FlowRecord rb = b.dataset.flows()[i];
    ASSERT_EQ(ra.time, rb.time) << i;
    ASSERT_EQ(ra.src_ip, rb.src_ip) << i;
    ASSERT_EQ(ra.dst_mac, rb.dst_mac) << i;
  }
  const auto ra = run_pipeline(a.dataset);
  const auto rb = run_pipeline(b.dataset);
  EXPECT_EQ(ra.events.size(), rb.events.size());
  EXPECT_EQ(ra.pre.data_anomaly_10m, rb.pre.data_anomaly_10m);
  EXPECT_EQ(ra.pre.no_data, rb.pre.no_data);
  EXPECT_EQ(ra.classes.zombies, rb.classes.zombies);
  EXPECT_EQ(ra.ports.clients, rb.ports.clients);
  EXPECT_EQ(ra.summary.dropped_packets, rb.summary.dropped_packets);
}

TEST(SeedSensitivityTest, DifferentSeedsDifferentCorpusSameShape) {
  gen::ScenarioConfig a;
  a.scale = 0.02;
  a.seed = 1;
  gen::ScenarioConfig b = a;
  b.seed = 2;
  const ScenarioRun ra = run_scenario(a, std::string{});
  const ScenarioRun rb = run_scenario(b, std::string{});
  // Different corpora...
  EXPECT_NE(ra.dataset.flows().size(), rb.dataset.flows().size());
  // ...same statistical shape.
  const auto pa = run_pipeline(ra.dataset);
  const auto pb = run_pipeline(rb.dataset);
  const double anomaly_a = static_cast<double>(pa.pre.data_anomaly_10m) /
                           static_cast<double>(pa.pre.total());
  const double anomaly_b = static_cast<double>(pb.pre.data_anomaly_10m) /
                           static_cast<double>(pb.pre.total());
  EXPECT_NEAR(anomaly_a, anomaly_b, 0.06);
}

}  // namespace
}  // namespace bw::core
