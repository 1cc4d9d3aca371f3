#include "core/event_merge.hpp"

#include <gtest/gtest.h>

#include "ixp/blackhole_service.hpp"

namespace bw::core {
namespace {

const net::Prefix kP1 = *net::Prefix::parse("10.0.0.1/32");
const net::Prefix kP2 = *net::Prefix::parse("10.0.0.2/32");

class EventMergeTest : public ::testing::Test {
 protected:
  void add(const net::Prefix& p, util::TimeMs announce, util::TimeMs withdraw) {
    log_.push_back(svc_.make_announce(announce, 100, 200, p));
    if (withdraw >= 0) log_.push_back(svc_.make_withdraw(withdraw, 100, 200, p));
  }

  ixp::BlackholeService svc_;
  bgp::UpdateLog log_;
};

TEST_F(EventMergeTest, SingleAnnounceWithdraw) {
  add(kP1, 100, 200);
  const auto events = merge_events(log_, 1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span, (util::TimeRange{100, 200}));
  EXPECT_EQ(events[0].announcements, 1u);
  EXPECT_EQ(events[0].prefix, kP1);
  EXPECT_EQ(events[0].sender, 100u);
  EXPECT_EQ(events[0].origin, 200u);
}

TEST_F(EventMergeTest, GapBelowDeltaMerges) {
  add(kP1, 0, util::kMinute);
  add(kP1, util::kMinute + 5 * util::kMinute, 10 * util::kMinute);
  const auto events = merge_events(log_, util::kHour, 10 * util::kMinute);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].announcements, 2u);
  EXPECT_EQ(events[0].active.size(), 2u);
  EXPECT_EQ(events[0].span.begin, 0);
  EXPECT_EQ(events[0].span.end, 10 * util::kMinute);
}

TEST_F(EventMergeTest, GapAboveDeltaSplits) {
  add(kP1, 0, util::kMinute);
  add(kP1, 12 * util::kMinute, 13 * util::kMinute);
  const auto events = merge_events(log_, util::kHour, 10 * util::kMinute);
  EXPECT_EQ(events.size(), 2u);
}

TEST_F(EventMergeTest, GapExactlyDeltaMerges) {
  add(kP1, 0, util::kMinute);
  add(kP1, util::kMinute + 10 * util::kMinute, 15 * util::kMinute);
  const auto events = merge_events(log_, util::kHour, 10 * util::kMinute);
  EXPECT_EQ(events.size(), 1u);  // |withdraw - announce| <= delta
}

TEST_F(EventMergeTest, DifferentPrefixesNeverMerge) {
  add(kP1, 0, util::kMinute);
  add(kP2, util::kMinute, 2 * util::kMinute);
  const auto events = merge_events(log_, util::kHour);
  EXPECT_EQ(events.size(), 2u);
}

TEST_F(EventMergeTest, NeverWithdrawnClosesAtPeriodEnd) {
  add(kP1, 100, -1);
  const auto events = merge_events(log_, 5000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span.end, 5000);
}

TEST_F(EventMergeTest, WithdrawWithoutAnnounceIgnored) {
  log_.push_back(svc_.make_withdraw(50, 100, 200, kP1));
  add(kP1, 100, 200);
  const auto events = merge_events(log_, 1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span.begin, 100);
}

TEST_F(EventMergeTest, EventsSortedByStart) {
  add(kP2, 500, 600);
  add(kP1, 100, 200);
  const auto events = merge_events(log_, 1000);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(events[0].span.begin, events[1].span.begin);
}

TEST_F(EventMergeTest, DeltaZeroSplitsEveryGap) {
  add(kP1, 0, 10);
  add(kP1, 11, 20);
  add(kP1, 21, 30);
  EXPECT_EQ(merge_events(log_, 100, 0).size(), 3u);
  EXPECT_EQ(merge_events(log_, 100, 5).size(), 1u);
}

TEST_F(EventMergeTest, SweepIsMonotoneAndEndsAtUniquePrefixes) {
  // Build a prefix with gaps of 1, 5, and 20 minutes.
  add(kP1, 0, util::kMinute);
  add(kP1, 2 * util::kMinute, 3 * util::kMinute);
  add(kP1, 8 * util::kMinute, 9 * util::kMinute);
  add(kP1, 29 * util::kMinute, 30 * util::kMinute);
  add(kP2, 0, util::kMinute);

  const std::vector<util::DurationMs> deltas{0, util::kMinute,
                                             10 * util::kMinute, util::kHour};
  const auto sweep = merge_sweep(log_, util::kDay, deltas);
  ASSERT_EQ(sweep.size(), deltas.size() + 1);
  for (std::size_t i = 1; i + 1 < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].events, sweep[i - 1].events) << "monotone in delta";
  }
  // Delta = infinity row: one event per unique prefix.
  EXPECT_EQ(sweep.back().delta, -1);
  EXPECT_EQ(sweep.back().events, 2u);
  // Fractions relative to 5 announcements.
  EXPECT_DOUBLE_EQ(sweep.front().event_fraction, 5.0 / 5.0);
  EXPECT_DOUBLE_EQ(sweep.back().event_fraction, 2.0 / 5.0);
}

TEST_F(EventMergeTest, WithdrawOnlyPrefixIsNotCountedAtInfiniteDelta) {
  add(kP1, 0, util::kMinute);
  // kP2 is only ever withdrawn: it has no event at any delta.
  log_.push_back(svc_.make_withdraw(2 * util::kMinute, 100, 200, kP2));
  const auto sweep = merge_sweep(log_, util::kHour, {0, 10 * util::kMinute});
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_EQ(sweep[0].events, 1u);
  EXPECT_EQ(sweep[1].events, 1u);
  EXPECT_EQ(sweep.back().delta, -1);
  EXPECT_EQ(sweep.back().events, 1u);
  EXPECT_LE(sweep.back().events, sweep[1].events) << "monotone in delta";
}

TEST_F(EventMergeTest, ActiveIntervalsPreserved) {
  add(kP1, 0, util::kMinute);
  add(kP1, 2 * util::kMinute, 3 * util::kMinute);
  const auto events = merge_events(log_, util::kHour);
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].active.size(), 2u);
  EXPECT_EQ(events[0].active[0], (util::TimeRange{0, util::kMinute}));
  EXPECT_EQ(events[0].active[1],
            (util::TimeRange{2 * util::kMinute, 3 * util::kMinute}));
}

}  // namespace
}  // namespace bw::core
