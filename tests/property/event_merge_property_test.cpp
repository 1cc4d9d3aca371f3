// core::merge_events (which runs core::EventLog, the merger the streaming
// kernels use) against the naive batch merger in
// tests/core/reference_kernels: field for field and in the same order,
// on generated corpora of 3 seeds, at Δ of 0, 1 min, 10 min and 1 h, for
// the sorted control log and for a seeded shuffle of it. merge_sweep is
// checked at the same deltas, its Δ = ∞ row against the number of
// prefixes the reference gives an event.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "core/pipeline.hpp"
#include "core/reference_kernels.hpp"

namespace bw::core {
namespace {

const std::vector<util::DurationMs> kDeltas{0, util::kMinute,
                                            10 * util::kMinute, util::kHour};

void expect_same_events(const std::vector<RtbhEvent>& got,
                        const std::vector<RtbhEvent>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k) {
    const RtbhEvent& g = got[k];
    const RtbhEvent& w = want[k];
    EXPECT_EQ(g.prefix, w.prefix) << what << " event " << k;
    EXPECT_EQ(g.sender, w.sender) << what << " event " << k;
    EXPECT_EQ(g.origin, w.origin) << what << " event " << k;
    EXPECT_EQ(g.span, w.span) << what << " event " << k;
    EXPECT_EQ(g.active, w.active) << what << " event " << k;
    EXPECT_EQ(g.announcements, w.announcements) << what << " event " << k;
  }
}

void expect_sweep_matches_reference(const bgp::UpdateLog& updates,
                                    util::TimeMs end,
                                    const std::string& what) {
  std::size_t announcements = 0;
  for (const bgp::Update& u : updates) {
    if (u.type == bgp::UpdateType::kAnnounce) ++announcements;
  }
  ASSERT_GT(announcements, 0u) << what;
  const auto sweep = merge_sweep(updates, end, kDeltas);
  ASSERT_EQ(sweep.size(), kDeltas.size() + 1) << what;
  std::set<net::Prefix> prefixes;
  for (std::size_t i = 0; i < kDeltas.size(); ++i) {
    const auto want = reference::merge_events(updates, end, kDeltas[i]);
    for (const RtbhEvent& ev : want) prefixes.insert(ev.prefix);
    EXPECT_EQ(sweep[i].delta, kDeltas[i]) << what;
    EXPECT_EQ(sweep[i].events, want.size()) << what << " delta " << kDeltas[i];
    EXPECT_DOUBLE_EQ(sweep[i].event_fraction,
                     static_cast<double>(want.size()) /
                         static_cast<double>(announcements))
        << what << " delta " << kDeltas[i];
    EXPECT_LE(sweep.back().events, sweep[i].events) << what;
  }
  EXPECT_EQ(sweep.back().delta, -1) << what;
  EXPECT_EQ(sweep.back().events, prefixes.size()) << what;
}

class EventMergePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EventMergePropertyTest, MergeEventsEqualsTheReference) {
  gen::ScenarioConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = GetParam();
  const ScenarioRun run = run_scenario(cfg, std::string{});  // cache disabled
  const util::TimeMs end = run.dataset.period().end;
  const bgp::UpdateLog& sorted = run.dataset.blackhole_updates();
  ASSERT_GT(sorted.size(), 100u);
  ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end(), bgp::update_before));

  bgp::UpdateLog shuffled = sorted;
  std::mt19937_64 rng(cfg.seed);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  ASSERT_FALSE(
      std::is_sorted(shuffled.begin(), shuffled.end(), bgp::update_before));

  for (const util::DurationMs delta : kDeltas) {
    const std::string at = " delta " + std::to_string(delta);
    const auto want = reference::merge_events(sorted, end, delta);
    ASSERT_FALSE(want.empty());
    expect_same_events(merge_events(sorted, end, delta), want, "sorted" + at);
    // A shuffle loses the feed order of same-instant updates, so both
    // sides re-sort the same shuffled log.
    expect_same_events(merge_events(shuffled, end, delta),
                       reference::merge_events(shuffled, end, delta),
                       "shuffled" + at);
  }
  expect_sweep_matches_reference(sorted, end, "sorted");
  expect_sweep_matches_reference(shuffled, end, "shuffled");
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventMergePropertyTest,
                         ::testing::Values(7u, 42u, 20191021u));

}  // namespace
}  // namespace bw::core
