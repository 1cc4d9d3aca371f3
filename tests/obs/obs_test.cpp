// Unit tests for the bw::obs observability substrate: sharded counters and
// histograms (including concurrent writers), the determinism naming
// convention, name-sorted snapshot JSON stability, manifest assembly, and
// the trace-span collector round trip.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bw::obs {
namespace {

TEST(CounterTest, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentAddsMergeExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, BucketBoundariesAreInclusive) {
  // bucket_for places value v in the first bucket whose bound is >= v.
  EXPECT_EQ(Histogram::bucket_for(0), 0u);
  EXPECT_EQ(Histogram::bucket_for(1), 0u);
  EXPECT_EQ(Histogram::bucket_for(2), 1u);
  EXPECT_EQ(Histogram::bucket_for(4), 1u);
  EXPECT_EQ(Histogram::bucket_for(5), 2u);
  EXPECT_EQ(Histogram::bucket_for(1024), 5u);
  EXPECT_EQ(Histogram::bucket_for(4194304), 11u);
  // Past the last bound: the overflow bucket.
  EXPECT_EQ(Histogram::bucket_for(4194305), Histogram::kBucketCount - 1);
}

TEST(HistogramTest, RecordSnapshotReset) {
  Histogram h;
  h.record(1);
  h.record(3);
  h.record(5000000);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 5000004u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[Histogram::kBucketCount - 1], 1u);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().sum, 0u);
}

TEST(MetricsTest, DeterminismNamingConvention) {
  EXPECT_TRUE(is_deterministic_metric("pipeline.runs"));
  EXPECT_TRUE(is_deterministic_metric("scenario.cache.hit"));
  EXPECT_TRUE(is_deterministic_metric("ingest.rows_read"));
  // Timing suffixes vary run to run.
  EXPECT_FALSE(is_deterministic_metric("pipeline.stage.victims.wall_us"));
  EXPECT_FALSE(is_deterministic_metric("dataset.load.latency_us"));
  EXPECT_FALSE(is_deterministic_metric("anything_ns"));
  // Scheduling shape varies with the thread count.
  EXPECT_FALSE(is_deterministic_metric("sched.parallel.chunks"));
  EXPECT_FALSE(is_deterministic_metric("sched.parallel.for_calls"));
  // Chunk-cache hits and evictions follow the thread interleaving.
  EXPECT_FALSE(is_deterministic_metric("store.chunk.decoded"));
  EXPECT_FALSE(is_deterministic_metric("store.chunk.evicted"));
  // Bytes put through the decoder follow the decode count; CRC time is a
  // timing.
  EXPECT_FALSE(is_deterministic_metric("store.chunk.bytes_decoded"));
  EXPECT_FALSE(is_deterministic_metric("store.chunk.crc_us"));
  EXPECT_TRUE(is_deterministic_metric("store.chunks"));
  // The materializing load's sub-phase timings.
  for (const char* phase : {"read", "index", "decode", "columns"}) {
    EXPECT_FALSE(is_deterministic_metric(std::string("dataset.load.") +
                                         phase + "_us"))
        << phase;
  }
}

TEST(RegistryTest, FindOrCreateReturnsStableHandles) {
  Registry registry;
  Counter& a = registry.counter("x.count");
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);
}

TEST(RegistryTest, SnapshotIsNameSortedAndJsonIsStable) {
  Registry registry;
  registry.counter("zebra").add(1);
  registry.counter("alpha").add(2);
  registry.gauge("mid").set(-5);
  registry.histogram("lat_us").record(10);

  const MetricsSnapshot s1 = registry.snapshot();
  ASSERT_EQ(s1.counters.size(), 2u);
  EXPECT_EQ(s1.counters[0].first, "alpha");
  EXPECT_EQ(s1.counters[1].first, "zebra");
  EXPECT_EQ(s1.counter("alpha"), 2u);
  EXPECT_EQ(s1.counter("absent"), 0u);

  const std::string json = s1.to_json();
  EXPECT_NE(json.find("\"alpha\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"zebra\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"mid\": -5"), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"bucket_counts\""), std::string::npos);
  // Same registry state renders byte-identical JSON.
  EXPECT_EQ(registry.snapshot().to_json(), json);

  registry.reset_values();
  const MetricsSnapshot s2 = registry.snapshot();
  EXPECT_EQ(s2.counter("zebra"), 0u);    // values cleared...
  EXPECT_EQ(s2.counters.size(), 2u);     // ...names stay registered
  EXPECT_EQ(s2.histograms[0].data.count, 0u);
}

TEST(ManifestTest, PopulateFromMetricsFillsHeadlinesAndStageTimes) {
  Registry registry;
  registry.counter("scenario.cache.hit").add(3);
  registry.counter("scenario.cache.miss").add(1);
  registry.counter("retry.backoffs").add(2);
  registry.counter("ingest.rows_read").add(100);
  registry.counter("ingest.rows_repaired").add(4);
  registry.counter("monitor.alerts").add(7);
  registry.counter("pipeline.stage.victims.wall_us").add(123);
  registry.counter("pipeline.stage.victims.cpu_us").add(45);

  Manifest m;
  m.tool = "bw-test";
  m.corpus = "corpus.csv";
  m.has_seed = true;
  m.seed = 20191021;
  m.threads = 8;
  m.stages.push_back({"victims", 0, 0, false, false});
  m.populate_from_metrics(registry.snapshot());

  EXPECT_EQ(m.cache_hits, 3u);
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.fault_retries, 2u);
  EXPECT_EQ(m.rows_loaded, 100u);
  EXPECT_EQ(m.rows_repaired, 4u);
  EXPECT_EQ(m.monitor_alerts, 7u);
  ASSERT_EQ(m.stages.size(), 1u);
  EXPECT_EQ(m.stages[0].wall_us, 123u);
  EXPECT_EQ(m.stages[0].cpu_us, 45u);

  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"tool\": \"bw-test\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 20191021"), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 8"), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"victims\", \"wall_us\": 123"),
            std::string::npos);
  EXPECT_NE(json.find("\"cache\": {\"hits\": 3, \"misses\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
  // Same inputs render byte-identical documents.
  EXPECT_EQ(m.to_json(), json);
}

TEST(ManifestTest, SeedIsNullWhenAbsent) {
  Manifest m;
  m.tool = "bw-test";
  EXPECT_NE(m.to_json().find("\"seed\": null"), std::string::npos);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  trace_enable(false);
  trace_reset();
  { const TraceSpan span("obs_test.disabled", "test"); }
  EXPECT_EQ(trace_event_count(), 0u);
  EXPECT_EQ(trace_dropped_count(), 0u);
}

TEST(TraceTest, EnabledSpansRoundTripThroughChromeJson) {
  trace_enable(true);
  trace_reset();
  {
    const TraceSpan outer("obs_test.outer", "test");
    const TraceSpan inner("obs_test.inner", "test");
  }
  trace_enable(false);
  EXPECT_EQ(trace_event_count(), 2u);

  const std::string json = render_chrome_trace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"test\""), std::string::npos);

  trace_reset();
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST(TraceTest, SpansFromWorkerThreadsAreAllCollected) {
  trace_enable(true);
  trace_reset();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back(
        [] { const TraceSpan span("obs_test.worker", "test"); });
  }
  for (auto& w : workers) w.join();
  trace_enable(false);
  EXPECT_EQ(trace_event_count(), 4u);
  trace_reset();
}

}  // namespace
}  // namespace bw::obs
