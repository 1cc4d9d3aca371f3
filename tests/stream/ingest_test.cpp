// The shared ingest core (stream/ingest.hpp): Feed's batched watermark
// promise and the threaded consume loop's failure handling.
#include "stream/ingest.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

namespace bw::stream {
namespace {

flow::FlowRecord flow_at(util::TimeMs t) {
  flow::FlowRecord f;
  f.time = t;
  return f;
}

TEST(FeedTest, StagedEventsPublishTheirMaximumOnlyOnFlush) {
  Feed feed(IngestOptions{});
  const Shedder::MakeRoom no_wait;
  for (util::TimeMs t : {300, 100, 200}) {
    feed.stage(feed.stamp(flow_at(t)), no_wait);
  }
  EXPECT_TRUE(feed.ring.empty()) << "below the batch size nothing lands";
  EXPECT_EQ(feed.watermark.load(), std::numeric_limits<util::TimeMs>::min());

  feed.flush(no_wait);
  EXPECT_EQ(feed.ring.size(), 3u);
  EXPECT_EQ(feed.watermark.load(), 300);
  EXPECT_EQ(feed.produced(), 3u);
  EXPECT_EQ(feed.ring.front()->seq, 0u) << "stamp numbers in arrival order";
}

TEST(ConsumeThreadedTest, ProducerExceptionIsRethrownInsteadOfHanging) {
  // The failing producer never closes its feed, so without forwarding
  // the consumer would wait for it forever.
  Feed feed(IngestOptions{});
  WatermarkMux mux({&feed}, 1024);
  core::RtbhMonitor monitor({}, [](const core::Alert&) {});
  Deliverer deliver{monitor};
  const std::vector<Producer> producers = {
      [&feed](const std::atomic<bool>& abort) {
        feed.push(feed.stamp(flow_at(100)), feed.wait_for_room(abort));
        throw std::runtime_error("producer failed");
      }};
  EXPECT_THROW(consume_threaded(mux, deliver, producers, 0),
               std::runtime_error);
}

TEST(ConsumeThreadedTest, WatchdogAbortsProducersAndDeliversWhatTheyHeld) {
  Feed feed(IngestOptions{});
  WatermarkMux mux({&feed}, 1024);
  core::RtbhMonitor monitor({}, [](const core::Alert&) {});
  Deliverer deliver{monitor};
  const std::vector<Producer> producers = {
      [&feed](const std::atomic<bool>& abort) {
        feed.push(feed.stamp(flow_at(100)), feed.wait_for_room(abort));
        while (!abort.load()) std::this_thread::yield();
        feed.close();
      }};
  EXPECT_TRUE(consume_threaded(mux, deliver, producers, 20));
  EXPECT_EQ(deliver.delivered_flow, 1u);
}

}  // namespace
}  // namespace bw::stream
