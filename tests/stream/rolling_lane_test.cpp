// The rolling lanes behind the ingest core's Deliverer (stream/ingest.hpp):
// with BW_THREADS >= 2 the two halves of the incremental kernels run on a
// lane thread each, and at BW_THREADS=1 the consumer calls them inline.
// Either way a reporter behind lockstep replay, threaded replay or a fault-free live session
// must emit the lines, and its monitor the alert log, of a reporter and
// monitor fed directly in the batch merge order. The two halves fed one
// after the other must stitch the lines of the combined kernels. A kernel
// exception must surface from the run that raised it, with every producer
// and lane joined. A reporter with an out_path must write the lines it would
// otherwise keep, and leave no file when dropped before finish(). ctest runs
// this suite twice, at BW_THREADS=4 and 1.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "stream/incremental/rolling.hpp"
#include "stream/replay.hpp"
#include "stream/transport/frame.hpp"
#include "stream/transport/session.hpp"
#include "stream/transport/socket.hpp"
#include "util/atomic_file.hpp"
#include "util/parallel.hpp"

namespace bw::stream {
namespace {

using incremental::IncrementalKernels;
using incremental::IncrementalSnapshot;
using incremental::RollingConfig;
using incremental::RollingReporter;

core::Dataset small_corpus(std::uint64_t seed) {
  gen::ScenarioConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = seed;
  cfg.period = {0, util::days(8)};
  return core::run_scenario(cfg, std::string{}).dataset;  // cache disabled
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

std::string alert_line(const core::Alert& a) {
  return std::to_string(a.time) + " " + std::string(core::to_string(a.kind)) +
         " " + a.prefix.to_string() + " " + a.message;
}

/// What one run leaves: the rolling lines and the alert log.
struct Output {
  std::vector<std::string> lines;
  std::vector<std::string> alerts;
};

/// A monitor and a reporter that record into one Output.
struct Sink {
  Output out;
  core::RtbhMonitor monitor{{}, [this](const core::Alert& a) {
                              out.alerts.push_back(alert_line(a));
                            }};
  RollingReporter rolling;

  explicit Sink(const core::Dataset& dataset)
      : rolling(rolling_config(dataset)) {}

  Output finish(util::TimeMs at) {
    EXPECT_TRUE(rolling.finish(at).ok());
    out.lines = rolling.lines();
    return out;
  }
};

/// The events of `dataset` in the batch merge order.
std::vector<StreamEvent> merge_order(const core::Dataset& dataset) {
  std::vector<StreamEvent> events;
  std::uint64_t useq = 0;
  std::uint64_t fseq = 0;
  for_each_in_merge_order(
      dataset,
      [&](const bgp::Update& u) {
        events.push_back(StreamEvent::from(u, useq++));
        return true;
      },
      [&](const flow::FlowRecord& f) {
        events.push_back(StreamEvent::from(f, fseq++));
        return true;
      });
  return events;
}

/// The reference: both fed directly, in the batch merge order.
Output direct(const core::Dataset& dataset) {
  Sink sink(dataset);
  for (const StreamEvent& ev : merge_order(dataset)) {
    if (ev.kind == EventKind::kBgpUpdate) sink.monitor.on_update(ev.update);
    else sink.monitor.on_flow(ev.flow);
    sink.rolling.on_event(ev);
  }
  sink.monitor.finish(dataset.period().end);
  return sink.finish(dataset.period().end);
}

Output replayed(const core::Dataset& dataset, bool lockstep) {
  Sink sink(dataset);
  ReplayOptions opt;
  opt.lockstep = lockstep;
  opt.block_deadline = 10 * util::kMinute;  // never shed
  opt.rolling = &sink.rolling;
  const ReplayStats stats = replay_streaming(dataset, sink.monitor, opt);
  EXPECT_EQ(stats.shed.shed_total, 0u);
  EXPECT_EQ(stats.mux.late_dropped, 0u);
  return sink.finish(dataset.period().end);
}

/// The corpus as one bwsf0001 byte string, as bw-feed sends it: merge
/// order, a heartbeat every 256 frames, a close at the period end.
std::string corpus_wire(const core::Dataset& dataset) {
  std::string wire;
  std::size_t since_heartbeat = 0;
  const auto heartbeat = [&](util::TimeMs t) {
    if (++since_heartbeat < 256) return true;
    since_heartbeat = 0;
    wire += transport::frame_heartbeat(t);
    return true;
  };
  for_each_in_merge_order(
      dataset,
      [&](const bgp::Update& u) {
        wire += transport::frame_update(u);
        return heartbeat(u.time);
      },
      [&](const flow::FlowRecord& f) {
        wire += transport::frame_flow(f);
        return heartbeat(f.time);
      });
  wire += transport::frame_close(dataset.period().end);
  return wire;
}

Output live(const core::Dataset& dataset, std::uint64_t seed) {
  transport::Endpoint ep;
  ep.kind = transport::Endpoint::Kind::kUnix;
  // The pid keeps the two registrations of this suite, which ctest may
  // run at once, off each other's socket.
  ep.path = ::testing::TempDir() + "bw_lane_" + std::to_string(seed) + "." +
            std::to_string(::getpid()) + ".sock";
  std::remove(ep.path.c_str());

  Sink sink(dataset);
  transport::LiveConfig config;
  config.listen_specs = {ep.to_string()};
  config.session.connect_timeout = 10 * util::kSecond;
  config.rolling = &sink.rolling;
  IngestOptions ingest;
  ingest.block_deadline = 10 * util::kMinute;  // never shed

  std::thread emitter([&] {
    const std::string wire = corpus_wire(dataset);
    transport::DialTransport dial(ep);
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto conn = dial.open(100);
      if (conn.ok()) {
        EXPECT_TRUE(conn->write_all(wire).ok());
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "could not dial " << ep.to_string();
  });
  const auto stats = transport::run_live(sink.monitor, config, ingest);
  emitter.join();
  EXPECT_TRUE(stats.ok()) << stats.status().to_string();
  if (!stats.ok()) return {};
  EXPECT_EQ(stats->delivered(),
            dataset.blackhole_updates().size() + dataset.flows().size());
  return sink.finish(stats->finish_time);
}

std::uint64_t lane_batches() {
  return obs::Registry::global()
      .counter("stream.rolling.lane_batches")
      .value();
}

class RollingLaneTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RollingLaneTest, LaneFedReporterMatchesDirectFeed) {
  const core::Dataset dataset = small_corpus(GetParam());
  const Output want = direct(dataset);
  ASSERT_GT(want.lines.size(), 10u);
  ASSERT_FALSE(want.alerts.empty());
  const bool lane = util::ThreadPool::configured_concurrency() >= 2;

  for (const bool lockstep : {true, false}) {
    SCOPED_TRACE(lockstep ? "lockstep replay" : "threaded replay");
    const std::uint64_t batches = lane_batches();
    const Output got = replayed(dataset, lockstep);
    EXPECT_EQ(got.lines, want.lines);
    EXPECT_EQ(got.alerts, want.alerts);
    // The gate: a lane, in batches, exactly when there are two threads.
    EXPECT_EQ(lane_batches() > batches, lane);
  }

  SCOPED_TRACE("fault-free live session");
  const Output got = live(dataset, GetParam());
  EXPECT_EQ(got.lines, want.lines);
  EXPECT_EQ(got.alerts, want.alerts);
}

TEST_P(RollingLaneTest, OutPathStreamsTheLinesAndCommitsAtFinish) {
  const core::Dataset dataset = small_corpus(GetParam());
  const Output want = direct(dataset);
  RollingConfig rc = rolling_config(dataset);
  rc.out_path = ::testing::TempDir() + "bw_lane_" +
                std::to_string(GetParam()) + "." +
                std::to_string(::getpid()) + ".jsonl";
  const std::string temp = util::atomic_temp_path(rc.out_path);
  std::remove(rc.out_path.c_str());
  {
    // Dropped before finish(), as by a failed run: neither file is left.
    RollingReporter aborted(rc);
    for (const StreamEvent& ev : merge_order(dataset)) aborted.on_event(ev);
    EXPECT_GT(aborted.snapshots(), 10u);
    EXPECT_TRUE(std::filesystem::exists(temp));
  }
  EXPECT_FALSE(std::filesystem::exists(rc.out_path));
  EXPECT_FALSE(std::filesystem::exists(temp));

  RollingReporter rolling(rc);
  core::RtbhMonitor monitor({}, [](const core::Alert&) {});
  ReplayOptions opt;
  opt.lockstep = true;
  opt.block_deadline = 10 * util::kMinute;  // never shed
  opt.rolling = &rolling;
  EXPECT_EQ(replay_streaming(dataset, monitor, opt).shed.shed_total, 0u);
  ASSERT_TRUE(rolling.finish(dataset.period().end).ok());
  EXPECT_TRUE(rolling.lines().empty());
  EXPECT_EQ(rolling.snapshots(), want.lines.size());
  std::string expected;
  for (const std::string& line : want.lines) expected += line + '\n';
  std::ifstream is(rc.out_path, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(is), {}), expected);
  EXPECT_FALSE(std::filesystem::exists(temp));
  std::remove(rc.out_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollingLaneTest,
                         ::testing::Values(3u, 17u, 20191021u));

TEST(RollingReporterStatusTest, UnwritableOutPathFailsAtConstruction) {
  const core::Dataset dataset = small_corpus(3);
  RollingConfig rc = rolling_config(dataset);
  EXPECT_TRUE(RollingReporter(rc).status().ok()) << "no out_path";
  rc.out_path = ::testing::TempDir() + "bw_no_such_dir." +
                std::to_string(::getpid()) + "/rolling.jsonl";
  const RollingReporter rolling(rc);
  EXPECT_EQ(rolling.status().code(), util::StatusCode::kUnavailable)
      << rolling.status().to_string();
}

/// One rolling line rendered whole from a combined snapshot, in the line
/// shape of rolling.hpp (doubles as `setprecision(17)`): the oracle for the
/// stitched lines.
std::string whole_line(std::size_t n, const IncrementalSnapshot& s,
                       double stability) {
  std::ostringstream os;
  os << std::setprecision(17) << "{\"snapshot\":" << n
     << ",\"final\":" << (s.final_report ? "true" : "false")
     << ",\"clock\":" << s.clock << ",\"events\":" << s.events_seen
     << ",\"bgp\":" << s.bgp_seen << ",\"flows\":" << s.flows_seen
     << ",\"committed\":" << s.flows_committed
     << ",\"pending\":" << s.flows_pending
     << ",\"rtbh_events\":" << s.rtbh_events
     << ",\"open_rtbh_events\":" << s.open_rtbh_events
     << ",\"topk_total\":" << s.topk_total
     << ",\"topk_max_error\":" << s.topk_max_error << ",\"topk\":[";
  for (std::size_t i = 0; i < s.top_ports.size(); ++i) {
    const auto& e = s.top_ports[i];
    os << (i ? "," : "") << "{\"proto\":" << static_cast<unsigned>(e.pp.proto)
       << ",\"port\":" << e.pp.port << ",\"count\":" << e.count
       << ",\"err\":" << e.err << "}";
  }
  os << "],\"topk_stability\":" << stability << ",\"figures\":"
     << RollingReporter::figures_json(s.drop, s.ports, s.collateral) << "}";
  return os.str();
}

/// The lines of the combined kernels, one thread, rendered whole.
std::vector<std::string> combined_lines(const RollingConfig& rc,
                                        const std::vector<StreamEvent>& events,
                                        util::TimeMs end) {
  IncrementalKernels kernels(rc.kernels);
  std::vector<std::string> lines;
  std::vector<incremental::TopKPorts::Entry> last_top;
  const auto emit = [&](bool final_report) {
    const IncrementalSnapshot snap = kernels.snapshot(final_report, rc.topk_k);
    const double stability =
        lines.empty() ? 1.0 : incremental::topk_stability(last_top, snap.top_ports);
    lines.push_back(whole_line(lines.size(), snap, stability));
    last_top = snap.top_ports;
  };
  util::TimeMs next = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    kernels.on_event(events[i]);
    if (rc.report_every <= 0) continue;
    if (i == 0) {
      next = events[i].time + rc.report_every;
      continue;
    }
    for (; events[i].time >= next; next += rc.report_every) emit(false);
  }
  kernels.finish(end);
  emit(true);
  return lines;
}

class SplitHalvesTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitHalvesTest, HalvesFedApartStitchTheCombinedLines) {
  const core::Dataset dataset = small_corpus(GetParam());
  std::vector<StreamEvent> events = merge_order(dataset);
  ASSERT_FALSE(events.empty());
  // A 20-hour quiet stretch: the first event after it crosses several
  // 6-hour boundaries at once.
  const util::TimeMs quiet = events.front().time + util::days(3);
  std::erase_if(events, [quiet](const StreamEvent& ev) {
    return ev.time >= quiet && ev.time < quiet + 20 * util::kHour;
  });
  const util::TimeMs end = dataset.period().end;

  for (const bool exact : {true, false}) {
    for (const util::DurationMs every : {6 * util::kHour, util::DurationMs{0}}) {
      SCOPED_TRACE(std::string(exact ? "exact" : "space-saving") +
                   " top-K, report_every " + std::to_string(every));
      RollingConfig rc = rolling_config(dataset);
      rc.kernels.topk_exact = exact;
      rc.kernels.topk_capacity = 16;  // evictions in space-saving mode
      rc.report_every = every;
      const std::vector<std::string> want = combined_lines(rc, events, end);
      ASSERT_EQ(want.size() > 20, every != 0) << want.size();

      // Each half cold, fed the whole stream apart from the other: every
      // drop part waits for its commit part.
      RollingReporter split(rc);
      for (const StreamEvent& ev : events) {
        split.on_event(RollingReporter::Half::kDrop, ev);
      }
      EXPECT_TRUE(split.lines().empty());
      for (const StreamEvent& ev : events) {
        split.on_event(RollingReporter::Half::kCommit, ev);
      }
      ASSERT_TRUE(split.finish(end).ok());
      EXPECT_EQ(split.lines(), want);

      // Both halves per event, as the inline path feeds them.
      RollingReporter inline_fed(rc);
      for (const StreamEvent& ev : events) inline_fed.on_event(ev);
      ASSERT_TRUE(inline_fed.finish(end).ok());
      EXPECT_EQ(inline_fed.lines(), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitHalvesTest,
                         ::testing::Values(3u, 17u, 20191021u));

/// A member_asn callback that throws on its `fail_at`-th call: the
/// kernels raise it from wherever they run.
RollingConfig failing_config(const core::Dataset& dataset,
                             std::atomic<std::size_t>& calls,
                             std::size_t fail_at) {
  RollingConfig rc = rolling_config(dataset);
  rc.kernels.member_asn = [&dataset, &calls, fail_at](net::Mac mac) {
    if (++calls == fail_at) throw std::runtime_error("member_asn failed");
    return dataset.member_asn(mac);
  };
  return rc;
}

TEST(RollingLaneFailureTest, KernelExceptionIsRethrownByTheReplay) {
  const core::Dataset dataset = small_corpus(3);
  std::atomic<std::size_t> counted{0};
  {
    RollingReporter probe(failing_config(dataset, counted, 0));
    for (const StreamEvent& ev : merge_order(dataset)) probe.on_event(ev);
  }
  ASSERT_GT(counted.load(), 100u) << "the corpus must attribute sources";

  // Fail early, mid-stream and at the very last call, in both modes; the
  // threaded run returns only after both producers have been joined.
  for (const std::size_t fail_at :
       {std::size_t{1}, counted.load() / 2, counted.load()}) {
    for (const bool lockstep : {true, false}) {
      SCOPED_TRACE("fail at call " + std::to_string(fail_at) +
                   (lockstep ? ", lockstep" : ", threaded"));
      std::atomic<std::size_t> calls{0};
      RollingReporter rolling(failing_config(dataset, calls, fail_at));
      core::RtbhMonitor monitor({}, [](const core::Alert&) {});
      ReplayOptions opt;
      opt.lockstep = lockstep;
      opt.ring_capacity = 64;  // producers fill their rings and wait
      opt.block_deadline = 10 * util::kMinute;
      opt.rolling = &rolling;
      EXPECT_THROW(replay_streaming(dataset, monitor, opt),
                   std::runtime_error);
      EXPECT_EQ(calls.load(), fail_at) << "no call after the failure";
    }
  }
}

TEST(RollingLaneFailureTest, DropLaneFailureIsRethrownWhileCommitLaneRuns) {
  // The drop half throws at its first attribution, early in the stream.
  // With two lanes the commit lane is then still working through the
  // batches in flight; the replay must stop it, rethrow and return
  // without feeding the drop half again.
  const core::Dataset dataset = small_corpus(17);
  for (const bool lockstep : {true, false}) {
    SCOPED_TRACE(lockstep ? "lockstep" : "threaded");
    std::atomic<std::size_t> calls{0};
    RollingConfig rc = rolling_config(dataset);
    rc.kernels.member_asn = [&calls](net::Mac) -> std::optional<bgp::Asn> {
      ++calls;
      throw std::runtime_error("member_asn failed");
    };
    RollingReporter rolling(rc);
    core::RtbhMonitor monitor({}, [](const core::Alert&) {});
    ReplayOptions opt;
    opt.lockstep = lockstep;
    opt.block_deadline = 10 * util::kMinute;
    opt.rolling = &rolling;
    EXPECT_THROW(replay_streaming(dataset, monitor, opt), std::runtime_error);
    EXPECT_EQ(calls.load(), 1u) << "no call after the failure";
  }
}

}  // namespace
}  // namespace bw::stream
