// Differential oracle for the incremental streaming kernels (ISSUE 10):
//
//   1. Convergence — after a full no-shed replay (lockstep and threaded),
//      the FINAL rolling snapshot's figures are byte-identical to the
//      batch kernels' reports rendered through the same figures_json(),
//      across 3 seeds and at every batch thread count (1 and 8): the
//      incremental path and the parallel batch path agree to the digit.
//   2. Monotonicity — intermediate snapshots are cumulative: the progress
//      counters (clock, events, committed flows, RTBH events, top-K
//      weight) never decrease from one snapshot line to the next.
//   3. Determinism — lockstep and threaded no-shed runs of the same
//      corpus emit the byte-identical snapshot *sequence* (event-time
//      cadence, not wall time).
//   4. Every line — a running kernel refreshes only what changed since its
//      previous snapshot; at every hourly boundary its snapshot equals that
//      of a cold kernel (no caches yet) fed the same event prefix, in both
//      top-K modes.
//   5. Equal begins — a long run of events sharing one begin is reported
//      in prefix order however it was created and snapshotted.
#include <gtest/gtest.h>

#include <set>

#include <string>
#include <vector>

#include "core/collateral.hpp"
#include "core/drop_rate.hpp"
#include "core/event_merge.hpp"
#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "core/port_stats.hpp"
#include "core/reference_kernels.hpp"
#include "stream/incremental/rolling.hpp"
#include "stream/replay.hpp"
#include "util/parallel.hpp"
#include "util/time.hpp"

namespace bw::stream::incremental {
namespace {

core::Dataset small_corpus(std::uint64_t seed, int days = 8) {
  gen::ScenarioConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = seed;
  cfg.period = {0, util::days(days)};
  return core::run_scenario(cfg, std::string{}).dataset;  // cache disabled
}

/// The delivery order of a no-shed replay: both feeds merged by time, BGP
/// updates first at equal timestamps (replay_batch's merge).
std::vector<StreamEvent> delivery_order(const core::Dataset& dataset) {
  const auto& updates = dataset.blackhole_updates();
  const auto& flows = dataset.flows();
  std::vector<StreamEvent> out;
  out.reserve(updates.size() + flows.size());
  std::size_t ui = 0;
  std::size_t fi = 0;
  while (ui < updates.size() || fi < flows.size()) {
    if (fi >= flows.size() ||
        (ui < updates.size() && updates[ui].time <= flows[fi].time)) {
      out.push_back(StreamEvent::from(updates[ui], ui));
      ++ui;
    } else {
      out.push_back(StreamEvent::from(flows[fi], fi));
      ++fi;
    }
  }
  return out;
}

/// The batch oracle: the reference merge (not core::EventLog, which the
/// streaming kernels run) + the three batch kernels on `pool`, rendered
/// through the one shared figures renderer.
std::string batch_figures(const core::Dataset& dataset,
                          util::ThreadPool* pool) {
  const auto events = core::reference::merge_events(
      dataset.blackhole_updates(), dataset.period().end);
  const auto drop = core::compute_drop_rates(dataset, events, {}, pool);
  const auto ports = core::compute_port_stats(dataset, events, {}, pool);
  const auto collateral =
      core::compute_collateral(dataset, events, ports, 10000, pool);
  return RollingReporter::figures_json(drop, ports, collateral);
}

RollingConfig rolling_config(const core::Dataset& dataset) {
  RollingConfig rc;
  rc.kernels.period = dataset.period();
  rc.kernels.member_asn = [&dataset](net::Mac mac) {
    return dataset.member_asn(mac);
  };
  rc.report_every = 6 * util::kHour;
  return rc;
}

/// Replay the corpus with a rolling reporter riding the consumer; returns
/// the emitted JSONL lines. Asserts the run really was no-shed.
std::vector<std::string> rolling_lines(const core::Dataset& dataset,
                                       bool lockstep) {
  RollingReporter reporter(rolling_config(dataset));
  core::RtbhMonitor monitor({}, [](const core::Alert&) {});
  ReplayOptions opt;
  opt.lockstep = lockstep;
  if (!lockstep) opt.block_deadline = 10 * util::kMinute;  // never shed
  opt.rolling = &reporter;
  const ReplayStats stats = replay_streaming(dataset, monitor, opt);
  EXPECT_EQ(stats.shed.shed_total, 0u);
  EXPECT_EQ(stats.mux.late_dropped, 0u);
  EXPECT_TRUE(reporter.finish(dataset.period().end).ok());
  return reporter.lines();
}

/// The convergence contract compares figures by substring: "figures" is
/// deliberately the last field of every line.
std::string figures_of(const std::string& line) {
  const std::size_t pos = line.find("\"figures\":");
  EXPECT_NE(pos, std::string::npos) << line;
  // Trim the trailing '}' that closes the snapshot object.
  return line.substr(pos + std::string("\"figures\":").size(),
                     line.size() - pos - std::string("\"figures\":").size() - 1);
}

std::uint64_t field_of(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(IncrementalConvergenceTest, FinalSnapshotEqualsBatchAcrossSeedsAndThreads) {
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const core::Dataset dataset = small_corpus(seed);

    // The batch oracle itself is thread-count invariant...
    const std::string oracle = batch_figures(dataset, &one);
    ASSERT_EQ(oracle, batch_figures(dataset, &eight))
        << "batch kernels must be identical at any thread count";
    ASSERT_NE(oracle.find("\"drop\""), std::string::npos);

    // ...and both replay interleavings land exactly on it.
    for (const bool lockstep : {true, false}) {
      SCOPED_TRACE(lockstep ? "lockstep" : "threaded");
      const std::vector<std::string> lines = rolling_lines(dataset, lockstep);
      ASSERT_GE(lines.size(), 2u) << "cadence should emit intermediates";
      ASSERT_EQ(figures_of(lines.back()), oracle)
          << "final rolling snapshot must equal the batch kernels";
      EXPECT_NE(lines.back().find("\"final\":true"), std::string::npos);
    }
  }
}

TEST(IncrementalConvergenceTest, IntermediateSnapshotsAreMonotone) {
  const core::Dataset dataset = small_corpus(12);
  const std::vector<std::string> lines = rolling_lines(dataset, true);
  ASSERT_GE(lines.size(), 3u);

  const char* cumulative[] = {"clock",       "events",     "bgp",
                              "flows",       "committed",  "rtbh_events",
                              "topk_total"};
  for (std::size_t i = 1; i < lines.size(); ++i) {
    for (const char* key : cumulative) {
      EXPECT_GE(field_of(lines[i], key), field_of(lines[i - 1], key))
          << key << " regressed between snapshots " << i - 1 << " and " << i;
    }
    EXPECT_EQ(field_of(lines[i], "snapshot"), i);
  }
  // The final snapshot has drained the commit horizon completely.
  EXPECT_EQ(field_of(lines.back(), "pending"), 0u);
  EXPECT_EQ(field_of(lines.back(), "committed"),
            field_of(lines.back(), "flows"));
}

TEST(IncrementalConvergenceTest, LockstepAndThreadedEmitIdenticalSequences) {
  const core::Dataset dataset = small_corpus(13);
  const std::vector<std::string> lockstep = rolling_lines(dataset, true);
  const std::vector<std::string> threaded = rolling_lines(dataset, false);
  ASSERT_EQ(lockstep, threaded)
      << "event-time cadence must make the snapshot sequence interleaving-"
         "independent";
}

void expect_same_snapshot(const IncrementalSnapshot& got,
                          const IncrementalSnapshot& want) {
  EXPECT_EQ(got.clock, want.clock);
  EXPECT_EQ(got.final_report, want.final_report);
  EXPECT_EQ(got.events_seen, want.events_seen);
  EXPECT_EQ(got.bgp_seen, want.bgp_seen);
  EXPECT_EQ(got.flows_seen, want.flows_seen);
  EXPECT_EQ(got.flows_committed, want.flows_committed);
  EXPECT_EQ(got.flows_pending, want.flows_pending);
  EXPECT_EQ(got.rtbh_events, want.rtbh_events);
  EXPECT_EQ(got.open_rtbh_events, want.open_rtbh_events);
  EXPECT_EQ(got.top_ports, want.top_ports);
  EXPECT_EQ(got.topk_total, want.topk_total);
  EXPECT_EQ(got.topk_max_error, want.topk_max_error);
  EXPECT_EQ(
      RollingReporter::figures_json(got.drop, got.ports, got.collateral),
      RollingReporter::figures_json(want.drop, want.ports, want.collateral));
}

TEST(IncrementalConvergenceTest, EverySnapshotEqualsColdKernelOnSamePrefix) {
  const core::Dataset dataset = small_corpus(12);
  // The first four days of the stream: 96 hourly lines.
  std::vector<StreamEvent> events = delivery_order(dataset);
  ASSERT_FALSE(events.empty());
  const util::TimeMs stop = events.front().time + util::days(4);
  std::erase_if(events, [stop](const StreamEvent& ev) { return ev.time >= stop; });
  constexpr std::size_t kTopK = 10;
  for (const bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "exact top-K" : "space-saving top-K");
    IncrementalConfig kc = rolling_config(dataset).kernels;
    kc.topk_exact = exact;
    kc.topk_capacity = 16;  // forces evictions in space-saving mode
    // Two bidirectional days make a host eligible inside the short window,
    // so classification and the collateral join change between lines too.
    kc.ports.min_days = 2;

    // `shadow` is fed the same events but never snapshotted, so it holds no
    // cache state; a copy of it is a cold kernel fed the prefix so far.
    IncrementalKernels running(kc);
    IncrementalKernels shadow(kc);
    std::size_t lines = 0;
    std::set<std::string> distinct_figures;
    util::TimeMs next = events.front().time + util::kHour;
    for (std::size_t i = 0; i < events.size(); ++i) {
      running.on_event(events[i]);
      shadow.on_event(events[i]);
      if (events[i].time < next) continue;
      IncrementalKernels cold = shadow;
      const IncrementalSnapshot want = cold.snapshot(false, kTopK);
      // A quiet stretch crosses several boundaries at one event; the
      // repeated snapshots then have every cache valid.
      while (events[i].time >= next) {
        expect_same_snapshot(running.snapshot(false, kTopK), want);
        ASSERT_FALSE(HasFailure()) << "line " << lines << " (event " << i
                                   << ")";
        ++lines;
        next += util::kHour;
      }
      distinct_figures.insert(RollingReporter::figures_json(
          want.drop, want.ports, want.collateral));
    }
    ASSERT_GE(lines, 90u);
    EXPECT_GT(distinct_figures.size(), 80u)
        << "the figures should change between lines";

    running.finish(dataset.period().end);
    shadow.finish(dataset.period().end);
    const IncrementalSnapshot final_cold = shadow.snapshot(true, kTopK);
    expect_same_snapshot(running.snapshot(true, kTopK), final_cold);
    EXPECT_GT(final_cold.collateral.servers_considered, 0u);
    EXPECT_FALSE(final_cold.collateral.events.empty());
    if (!exact) {
      EXPECT_GT(final_cold.topk_max_error, 0u);
    }
  }
}

TEST(IncrementalConvergenceTest, RollingTopKEmitsKEntriesAboveSixteen) {
  const core::Dataset dataset = small_corpus(12);
  std::set<net::ProtoPort> ports;
  for (const auto& rec : dataset.flows()) ports.insert({rec.proto, rec.dst_port});
  ASSERT_GE(ports.size(), 20u);

  RollingConfig rc = rolling_config(dataset);
  rc.topk_k = 20;
  RollingReporter reporter(rc);
  for (const StreamEvent& ev : delivery_order(dataset)) reporter.on_event(ev);
  ASSERT_TRUE(reporter.finish(dataset.period().end).ok());
  // The final line has seen every port, so its list is full.
  const std::string& line = reporter.lines().back();
  const std::size_t begin = line.find("\"topk\":[");
  const std::size_t end = line.find("],\"topk_stability\"");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  const std::string topk = line.substr(begin, end - begin);
  std::size_t entries = 0;
  for (std::size_t pos = topk.find("\"proto\":"); pos != std::string::npos;
       pos = topk.find("\"proto\":", pos + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 20u) << topk;
}

TEST(IncrementalConvergenceTest, EqualBeginRunIsReportedInPrefixOrder) {
  // Every /32 announced at one instant in descending address order, as
  // when a session start announces every active blackhole: report order
  // (begin, prefix) reverses creation order across the whole run.
  // Snapshots taken while the run grows and while its tallies change must
  // still put each event's drop rate at its address rank.
  constexpr std::uint32_t kHosts = 2000;
  constexpr std::uint32_t kBase = 0x0a000000u;
  IncrementalConfig kc;
  kc.period = {0, util::kDay};
  IncrementalKernels kernels(kc);
  std::uint64_t seq = 0;
  for (std::uint32_t i = kHosts; i-- > 0;) {
    bgp::Update u;
    u.time = util::kHour;
    u.prefix = net::Prefix::host(net::Ipv4(kBase + i));
    u.communities = {bgp::kBlackhole};
    kernels.on_event(StreamEvent::from(u, seq++));
    if (i % 100 == 0) (void)kernels.snapshot(false, 0);
  }
  // Host i gets 10 sampled packets, 1 + i % 9 of them dropped.
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    flow::FlowRecord rec;
    rec.time = 2 * util::kHour;
    rec.dst_ip = net::Ipv4(kBase + i);
    rec.packets = 1 + i % 9;
    rec.dst_mac = net::Mac::blackhole();
    kernels.on_event(StreamEvent::from(rec, seq++));
    rec.packets = 10 - rec.packets;
    rec.dst_mac = net::Mac();
    kernels.on_event(StreamEvent::from(rec, seq++));
    if (i % 100 == 0) (void)kernels.snapshot(false, 0);
  }
  const IncrementalSnapshot snap = kernels.snapshot(false, 0);
  ASSERT_EQ(snap.rtbh_events, kHosts);
  const std::vector<double>& rates = snap.drop.event_rates_len32;
  ASSERT_EQ(rates.size(), kHosts);
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    ASSERT_EQ(rates[i], (1 + i % 9) / 10.0) << "host " << i;
  }
}

}  // namespace
}  // namespace bw::stream::incremental
