#include "stream/watermark.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace bw::stream {
namespace {

StreamEvent bgp_event(util::TimeMs t, std::uint64_t seq) {
  bgp::Update u;
  u.time = t;
  return StreamEvent::from(u, seq);
}

StreamEvent flow_event(util::TimeMs t, std::uint64_t seq) {
  flow::FlowRecord r;
  r.time = t;
  return StreamEvent::from(r, seq);
}

struct Collector {
  std::vector<StreamEvent> out;
  void operator()(const StreamEvent& ev) { out.push_back(ev); }
};

TEST(StreamEventTest, DeliveryOrderIsTimeKindSeq) {
  // BGP before flow at equal times; FIFO seq breaks the final tie.
  EXPECT_TRUE(bgp_event(100, 0).before(flow_event(100, 0)));
  EXPECT_FALSE(flow_event(100, 0).before(bgp_event(100, 9)));
  EXPECT_TRUE(flow_event(99, 5).before(bgp_event(100, 0)));
  EXPECT_TRUE(flow_event(100, 1).before(flow_event(100, 2)));
}

TEST(WatermarkMuxTest, MergesTwoFeedsInEventTimeOrder) {
  FeedRing bgp_feed(16, 0);
  FeedRing flow_feed(16, 0);
  WatermarkMux mux({&bgp_feed, &flow_feed}, 1024);

  // Interleaved times, including an equal-time pair (t=30) where the BGP
  // update must come out first — the batch merge tie-break.
  for (util::TimeMs t : {10, 30, 50}) {
    bgp_feed.advance_watermark(t);
    ASSERT_TRUE(bgp_feed.ring.try_push(bgp_event(t, static_cast<std::uint64_t>(t))));
  }
  for (util::TimeMs t : {20, 30, 40}) {
    flow_feed.advance_watermark(t);
    ASSERT_TRUE(flow_feed.ring.try_push(flow_event(t, static_cast<std::uint64_t>(t))));
  }
  bgp_feed.close();
  flow_feed.close();

  Collector got;
  while (!mux.exhausted()) {
    mux.drain_feeds(64);
    mux.release_ready(got);
  }
  ASSERT_EQ(got.out.size(), 6u);
  const std::vector<std::pair<util::TimeMs, EventKind>> expected = {
      {10, EventKind::kBgpUpdate}, {20, EventKind::kFlow},
      {30, EventKind::kBgpUpdate}, {30, EventKind::kFlow},
      {40, EventKind::kFlow},      {50, EventKind::kBgpUpdate},
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got.out[i].time, expected[i].first) << i;
    EXPECT_EQ(got.out[i].kind, expected[i].second) << i;
  }
  EXPECT_EQ(mux.stats().released, 6u);
  EXPECT_EQ(mux.stats().late_dropped, 0u);
}

TEST(WatermarkMuxTest, HoldsEventsUntilBothFeedsPassThem) {
  FeedRing a(16, 0);
  FeedRing b(16, 0);
  WatermarkMux mux({&a, &b}, 1024);

  // Feed a has progressed to t=100; feed b has said nothing yet. Nothing
  // may be released: b could still produce arbitrarily early events.
  a.advance_watermark(100);
  ASSERT_TRUE(a.ring.try_push(bgp_event(100, 0)));
  mux.drain_feeds(64);
  Collector got;
  EXPECT_EQ(mux.release_ready(got), 0u);

  // Both feeds progress past 100: a's event becomes releasable (release is
  // strict, so a's own watermark sitting exactly at 100 still holds it).
  b.advance_watermark(250);
  ASSERT_TRUE(b.ring.try_push(flow_event(250, 0)));
  a.advance_watermark(150);
  mux.drain_feeds(64);
  mux.release_ready(got);
  ASSERT_EQ(got.out.size(), 1u);
  EXPECT_EQ(got.out[0].time, 100);
}

TEST(WatermarkMuxTest, AllowanceAdmitsBoundedDisorder) {
  // One feed with allowance 10: events may arrive up to 10ms out of order
  // and must still be released in time order.
  FeedRing a(16, 10);
  WatermarkMux mux({&a}, 1024);
  const util::TimeMs times[] = {100, 95, 105, 98, 110, 120};
  std::uint64_t seq = 0;
  Collector got;
  for (util::TimeMs t : times) {
    a.advance_watermark(t);
    ASSERT_TRUE(a.ring.try_push(flow_event(t, seq++)));
    mux.drain_feeds(64);
    mux.release_ready(got);
  }
  a.close();
  while (!mux.exhausted()) {
    mux.drain_feeds(64);
    mux.release_ready(got);
  }
  ASSERT_EQ(got.out.size(), 6u);
  EXPECT_EQ(mux.stats().late_dropped, 0u);
  for (std::size_t i = 1; i < got.out.size(); ++i) {
    EXPECT_LE(got.out[i - 1].time, got.out[i].time) << i;
  }
}

TEST(WatermarkMuxTest, PumpAdmitsBoundedDisorder) {
  // The same disorder through the pump fast path: a front under the
  // published mark is not the feed's earliest event when the allowance is
  // nonzero, so pump must leave such a feed to drain+release instead of
  // late-dropping the in-allowance stragglers behind the front.
  FeedRing a(16, 10);
  WatermarkMux mux({&a}, 1024);
  std::uint64_t seq = 0;
  Collector got;
  for (util::TimeMs t : {100, 95, 105, 98, 110, 120}) {
    a.advance_watermark(t);
    ASSERT_TRUE(a.ring.try_push(flow_event(t, seq++)));
    mux.pump(got);
  }
  a.close();
  while (!mux.exhausted()) {
    mux.pump(got);
    mux.drain_feeds(64);
    mux.release_ready(got);
  }
  std::vector<util::TimeMs> times;
  for (const StreamEvent& ev : got.out) times.push_back(ev.time);
  EXPECT_EQ(times, (std::vector<util::TimeMs>{95, 98, 100, 105, 110, 120}));
  EXPECT_EQ(mux.stats().late_dropped, 0u);
}

TEST(WatermarkMuxTest, PumpMatchesDrainReleaseOnZeroAllowanceFeeds) {
  // Two identical pairs of time-ordered feeds, one consumed by pump, one
  // by drain+release, fed the same random interleave (with equal-time
  // ties across the feeds): the delivered sequences and stats must match.
  FeedRing pa(1024, 0), pb(1024, 0), da(1024, 0), db(1024, 0);
  WatermarkMux pumped({&pa, &pb}, 1024);
  WatermarkMux drained({&da, &db}, 1024);
  Collector via_pump;
  Collector via_drain;
  util::Rng rng(19);
  util::TimeMs ta = 0;
  util::TimeMs tb = 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    const bool to_a = rng.index(2) == 0;
    util::TimeMs& t = to_a ? ta : tb;
    t += static_cast<util::TimeMs>(rng.index(3));
    const StreamEvent ev = to_a ? bgp_event(t, seq++) : flow_event(t, seq++);
    for (FeedRing* f : to_a ? std::vector<FeedRing*>{&pa, &da}
                            : std::vector<FeedRing*>{&pb, &db}) {
      f->advance_watermark(t);
      ASSERT_TRUE(f->ring.try_push(StreamEvent(ev)));
    }
    pumped.pump(via_pump);
    drained.drain_feeds(1024);
    drained.release_ready(via_drain);
  }
  // The pump holds a closed feed's last events at its own watermark; the
  // tail runs the pump → drain → release step of the consume loops.
  for (FeedRing* f : {&pa, &pb, &da, &db}) f->close();
  while (!pumped.exhausted()) {
    pumped.pump(via_pump);
    pumped.drain_feeds(1024);
    pumped.release_ready(via_pump);
  }
  while (!drained.exhausted()) {
    drained.drain_feeds(1024);
    drained.release_ready(via_drain);
  }
  ASSERT_EQ(via_pump.out.size(), 500u);
  ASSERT_EQ(via_drain.out.size(), 500u);
  for (std::size_t i = 0; i < via_pump.out.size(); ++i) {
    EXPECT_EQ(via_pump.out[i].kind, via_drain.out[i].kind) << i;
    EXPECT_EQ(via_pump.out[i].time, via_drain.out[i].time) << i;
    EXPECT_EQ(via_pump.out[i].seq, via_drain.out[i].seq) << i;
  }
  EXPECT_EQ(pumped.stats().released, drained.stats().released);
  EXPECT_EQ(pumped.stats().late_dropped, 0u);
  EXPECT_EQ(drained.stats().late_dropped, 0u);
}

TEST(WatermarkMuxTest, EventBehindTheAllowanceIsCountedAndDropped) {
  FeedRing a(16, 5);
  FeedRing b(16, 5);
  WatermarkMux mux({&a, &b}, 1024);
  Collector got;

  // Both feeds progress well past t=100 and events release...
  for (util::TimeMs t : {100, 200}) {
    a.advance_watermark(t);
    ASSERT_TRUE(a.ring.try_push(flow_event(t, static_cast<std::uint64_t>(t))));
    b.advance_watermark(t);
    ASSERT_TRUE(b.ring.try_push(bgp_event(t, static_cast<std::uint64_t>(t))));
    mux.drain_feeds(64);
    mux.release_ready(got);
  }
  const std::uint64_t released_before = mux.stats().released;
  EXPECT_GT(released_before, 0u);

  // ...then feed a violates its promise by far more than the allowance.
  // Emitting t=50 now would hand the consumer time travel: count + drop.
  ASSERT_TRUE(a.ring.try_push(flow_event(50, 99)));
  mux.drain_feeds(64);
  mux.release_ready(got);
  EXPECT_EQ(mux.stats().late_dropped, 1u);
  for (const auto& ev : got.out) EXPECT_NE(ev.seq, 99u);
}

TEST(WatermarkMuxTest, PublishedWatermarkMustNotOvertakeRingBacklog) {
  // Feed a: events t=10..13 pushed (watermark 13) but NOT yet drained.
  // Feed b: event t=12 drained into the heap. If the mux trusted the
  // published watermark alone, it would release b@12 ahead of a's buffered
  // 10 and 11 — the in-band clamp must prevent that.
  FeedRing a(16, 0);
  FeedRing b(16, 0);
  WatermarkMux mux({&a, &b}, 1024);
  for (util::TimeMs t : {10, 11, 12, 13}) {
    a.advance_watermark(t);
    ASSERT_TRUE(a.ring.try_push(flow_event(t, static_cast<std::uint64_t>(t))));
  }
  b.advance_watermark(12);
  ASSERT_TRUE(b.ring.try_push(bgp_event(12, 0)));

  // Drain only from b (budget 1 pops the gating pick; a gates with its
  // front at t=10, so give the mux no chance to pop a at all by checking
  // the threshold directly).
  EXPECT_LE(mux.release_threshold(), 10)
      << "threshold must clamp to a's oldest undrained event";

  Collector got;
  a.close();
  b.close();
  while (!mux.exhausted()) {
    mux.drain_feeds(64);
    mux.release_ready(got);
  }
  ASSERT_EQ(got.out.size(), 5u);
  for (std::size_t i = 1; i < got.out.size(); ++i) {
    EXPECT_FALSE(got.out[i].before(got.out[i - 1])) << i;
  }
  EXPECT_EQ(mux.stats().late_dropped, 0u);
}

TEST(WatermarkMuxTest, BatchPromisePublishedAfterPushCannotOutrunTheBatch) {
  // Regression for the Session::flush ordering bug: publishing a batch's
  // max watermark while the ring was still empty let the consumer release
  // other feeds past the batch's earlier events, which were then dropped
  // as late when they finally landed. The producer protocol is push the
  // batch first, advance after; this replays the racy interleaving
  // deterministically, draining at the worst possible moments.
  FeedRing a(16, 0);
  FeedRing b(16, 0);
  WatermarkMux mux({&a, &b}, 1024);
  Collector got;

  // Feed b: event t=180 buffered, promise already at 250.
  b.advance_watermark(250);
  ASSERT_TRUE(b.ring.try_push(flow_event(180, 0)));
  mux.drain_feeds(64);
  EXPECT_EQ(mux.release_ready(got), 0u) << "silent feed a gates everything";

  // Feed a flushes a decode batch [100, 200]: the whole batch lands
  // before the batch-max promise. A drain between the push and the
  // promise must not release b@180 past a's still-buffered 100 — the
  // pre-fix order (advance(200) on the empty ring, then push) would have
  // released 180 here and dropped 100 as late.
  ASSERT_TRUE(a.ring.try_push(bgp_event(100, 0)));
  ASSERT_TRUE(a.ring.try_push(bgp_event(200, 1)));
  mux.drain_feeds(64);
  mux.release_ready(got);
  a.advance_watermark(200);
  mux.drain_feeds(64);
  mux.release_ready(got);

  a.close();
  b.close();
  while (!mux.exhausted()) {
    mux.drain_feeds(64);
    mux.release_ready(got);
  }
  EXPECT_EQ(mux.stats().late_dropped, 0u);
  ASSERT_EQ(got.out.size(), 3u);
  EXPECT_EQ(got.out[0].time, 100);
  EXPECT_EQ(got.out[1].time, 180);
  EXPECT_EQ(got.out[2].time, 200);
}

TEST(WatermarkMuxTest, HeapCapStopsDrainingRacingFeeds) {
  // Feed a is open but silent (dead producer); feed b races ahead. At the
  // heap cap the mux must stop popping b — b's backlog belongs in its ring
  // (backpressure), not in an unbounded heap.
  FeedRing a(8, 0);
  FeedRing b(64, 0);
  WatermarkMux mux({&a, &b}, 4);
  for (util::TimeMs t = 0; t < 32; ++t) {
    b.advance_watermark(t);
    ASSERT_TRUE(b.ring.try_push(flow_event(t, static_cast<std::uint64_t>(t))));
  }
  const std::size_t popped = mux.drain_feeds(1000);
  EXPECT_EQ(popped, 4u) << "drain must stop at the heap cap";
  EXPECT_EQ(b.ring.size(), 28u);

  // Once feed a closes, the backlog drains and releases in order.
  a.close();
  b.close();
  Collector got;
  while (!mux.exhausted()) {
    mux.drain_feeds(64);
    mux.release_ready(got);
  }
  EXPECT_EQ(got.out.size(), 32u);
  EXPECT_EQ(mux.stats().forced_releases, 0u);
}

TEST(WatermarkMuxTest, ClosedAndDrainedFeedStopsGating) {
  FeedRing a(16, 0);
  FeedRing b(16, 0);
  WatermarkMux mux({&a, &b}, 1024);
  a.advance_watermark(10);
  ASSERT_TRUE(a.ring.try_push(bgp_event(10, 0)));
  a.close();

  b.advance_watermark(500);
  ASSERT_TRUE(b.ring.try_push(flow_event(500, 0)));

  Collector got;
  mux.drain_feeds(64);
  mux.release_ready(got);
  // a is closed and drained: only b's own watermark gates, so a's event
  // (and nothing else) is releasable.
  ASSERT_EQ(got.out.size(), 1u);
  EXPECT_EQ(got.out[0].time, 10);
}

TEST(WatermarkMuxTest, GatingFeedClosedMidCallReleasesTheHeapImmediately) {
  // The dead-gating-feed regression (ISSUE 9): feed a gates the merge at
  // watermark 3 while feed b's events 1..5 sit in the heap. When a closes
  // *during* release_ready — exactly what the session supervisor does when
  // it declares a feed dead, observed here via the delivery callback — the
  // same call must re-read the threshold and flush everything b's own
  // watermark allows, not strand the heap until some later call.
  FeedRing a(16, 0);
  FeedRing b(16, 0);
  WatermarkMux mux({&a, &b}, 1024);

  for (util::TimeMs t : {1, 2, 3, 4, 5}) {
    b.advance_watermark(t);
    ASSERT_TRUE(b.ring.try_push(flow_event(t, static_cast<std::uint64_t>(t))));
  }
  b.advance_watermark(6);
  a.advance_watermark(3);  // a gates: only t=1,2 are strictly below
  mux.drain_feeds(64);

  Collector got;
  const std::size_t released = mux.release_ready([&](const StreamEvent& ev) {
    got(ev);
    if (ev.time == 2) a.close();  // the supervisor declares feed a dead
  });
  EXPECT_EQ(released, 5u)
      << "closing the gating feed mid-call must release the rest in-call";
  ASSERT_EQ(got.out.size(), 5u);
  for (std::size_t i = 1; i < got.out.size(); ++i) {
    EXPECT_LE(got.out[i - 1].time, got.out[i].time) << i;
  }
  EXPECT_EQ(mux.stats().forced_releases, 0u);
  EXPECT_EQ(mux.stats().late_dropped, 0u);
}

TEST(WatermarkMuxTest, FeedClosedWithEmptyRingStopsGatingOnTheNextCall) {
  // Feed a never produced anything (watermark still at the floor), so it
  // gates absolutely. Closing it — ring empty, no drain in between — must
  // make the very next release_ready flush feed b's backlog.
  FeedRing a(16, 0);
  FeedRing b(16, 0);
  WatermarkMux mux({&a, &b}, 1024);
  for (util::TimeMs t : {10, 20, 30}) {
    b.advance_watermark(t);
    ASSERT_TRUE(b.ring.try_push(bgp_event(t, static_cast<std::uint64_t>(t))));
  }
  b.advance_watermark(40);
  mux.drain_feeds(64);

  Collector got;
  EXPECT_EQ(mux.release_ready(got), 0u) << "a silent open feed gates all";

  a.close();
  EXPECT_EQ(mux.release_ready(got), 3u)
      << "a closed empty feed must stop gating without another drain";
  ASSERT_EQ(got.out.size(), 3u);
  EXPECT_EQ(got.out.back().time, 30);
}

}  // namespace
}  // namespace bw::stream
