// Live transport sessions end to end, over real Unix-domain sockets: a
// clean session, reconnect-and-resume, backoff budget exhaustion (a dead
// feed must stop gating the mux), stall detection, garbage resync on a
// live link, and the headline acceptance check of ISSUE 9 — a fault-free
// live run delivers the byte-identical alert stream of a lockstep replay.
#include "stream/transport/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "stream/replay.hpp"
#include "stream/transport/frame.hpp"
#include "stream/transport/socket.hpp"
#include "stream/watermark.hpp"
#include "util/rng.hpp"

namespace bw::stream::transport {
namespace {

Endpoint unix_endpoint(const std::string& name) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = ::testing::TempDir() + name;
  std::remove(ep.path.c_str());
  return ep;
}

/// Dial until the listener answers (bind happens on the other thread).
Connection dial(const Endpoint& ep) {
  DialTransport transport(ep);
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto conn = transport.open(100);
    if (conn.ok()) return std::move(*conn);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "could not dial " << ep.to_string();
  return Connection();
}

bgp::Update update_at(util::TimeMs t) {
  bgp::Update u;
  u.time = t;
  u.sender_asn = 64500;
  u.origin_asn = 65001;
  u.prefix = net::Prefix(net::Ipv4(0x0A010100u), 24);
  u.next_hop = net::Ipv4(0xC0A80001u);
  u.communities.push_back({65535, 666});
  return u;
}

flow::FlowRecord flow_at(util::TimeMs t) {
  flow::FlowRecord f;
  f.time = t;
  f.src_ip = net::Ipv4(0x01020304u);
  f.dst_ip = net::Ipv4(0x0A010101u);
  f.proto = net::Proto::kUdp;
  f.src_port = 123;
  f.dst_port = 80;
  f.packets = 10;
  f.bytes = 1200;
  return f;
}

/// Drain both session feeds through a mux once run() has returned.
std::vector<StreamEvent> drain_session(Session& session) {
  WatermarkMux mux({&session.bgp_feed(), &session.flow_feed()}, 1 << 16);
  std::vector<StreamEvent> out;
  while (!mux.exhausted()) {
    mux.drain_feeds(1024);
    mux.release_ready([&out](const StreamEvent& ev) { out.push_back(ev); });
  }
  return out;
}

SessionConfig fast_config() {
  SessionConfig cfg;
  cfg.backoff = {/*base=*/1, /*cap=*/5, /*budget=*/50, /*full_jitter=*/false};
  cfg.connect_timeout = 2000;
  cfg.read_idle_timeout = 10000;
  return cfg;
}

TEST(TransportSessionTest, CleanUnixSessionDeliversEverythingInOrder) {
  const Endpoint ep = unix_endpoint("bw_sess_clean.sock");
  auto listener = ListenTransport::bind(ep);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();

  Session session("s0", std::move(*listener), fast_config());
  std::atomic<bool> abort{false};
  std::thread runner([&] { session.run(abort); });

  std::thread emitter([&] {
    Connection conn = dial(ep);
    std::string wire;
    wire += frame_update(update_at(100));
    wire += frame_flow(flow_at(150));
    wire += frame_update(update_at(200));
    wire += frame_flow(flow_at(250));
    wire += frame_update(update_at(300));
    wire += frame_heartbeat(400);
    wire += frame_close(500);
    ASSERT_TRUE(conn.write_all(wire).ok());
  });
  emitter.join();
  runner.join();

  const SessionStats& st = session.stats();
  EXPECT_TRUE(st.clean_close);
  EXPECT_FALSE(st.declared_dead);
  EXPECT_EQ(st.connects, 1u);
  EXPECT_EQ(st.reconnects, 0u);
  EXPECT_EQ(st.disconnects, 0u);
  EXPECT_EQ(st.frames, 7u);
  EXPECT_EQ(st.heartbeats, 1u);
  EXPECT_EQ(st.events_bgp, 3u);
  EXPECT_EQ(st.events_flow, 2u);
  EXPECT_EQ(st.close_time, 500);
  EXPECT_EQ(st.payload_errors, 0u);
  EXPECT_EQ(st.decode.discarded_bytes, 0u);
  EXPECT_EQ(st.shed.shed_total, 0u);
  EXPECT_EQ(session.state(), SessionState::kClosedClean);
  EXPECT_TRUE(session.finished());

  const std::vector<StreamEvent> got = drain_session(session);
  ASSERT_EQ(got.size(), 5u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_FALSE(got[i].before(got[i - 1])) << i;
  }
  EXPECT_EQ(got.front().time, 100);
  EXPECT_EQ(got.back().time, 300);
}

TEST(TransportSessionTest, ReconnectResumesAfterEof) {
  const Endpoint ep = unix_endpoint("bw_sess_reconnect.sock");
  auto listener = ListenTransport::bind(ep);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();

  Session session("s0", std::move(*listener), fast_config());
  std::atomic<bool> abort{false};
  std::thread runner([&] { session.run(abort); });

  std::thread emitter([&] {
    {
      Connection conn = dial(ep);
      ASSERT_TRUE(conn.write_all(frame_update(update_at(100))).ok());
    }  // EOF without a Close frame: an abnormal disconnect
    {
      Connection conn = dial(ep);
      std::string wire;
      wire += frame_flow(flow_at(200));
      wire += frame_close(300);
      ASSERT_TRUE(conn.write_all(wire).ok());
    }
  });
  emitter.join();
  runner.join();

  const SessionStats& st = session.stats();
  EXPECT_TRUE(st.clean_close);
  EXPECT_EQ(st.connects, 2u);
  EXPECT_EQ(st.reconnects, 1u);
  EXPECT_EQ(st.disconnects, 1u);
  EXPECT_EQ(st.events_bgp, 1u);
  EXPECT_EQ(st.events_flow, 1u);
  EXPECT_EQ(st.close_time, 300);
  EXPECT_EQ(drain_session(session).size(), 2u)
      << "nothing sent before the cut may be lost";
}

TEST(TransportSessionTest, ExhaustedBudgetDeclaresDeadAndStopsGatingTheMux) {
  // Nobody listens on this path: every connect fails, the budget drains,
  // and the session must die with both feeds closed — a mux fed by the
  // corpse sees exhaustion immediately instead of stalling forever.
  const Endpoint ep = unix_endpoint("bw_sess_nobody.sock");
  SessionConfig cfg = fast_config();
  cfg.backoff = {1, 2, /*budget=*/2, false};
  cfg.connect_timeout = 50;
  Session session("s0", std::make_unique<DialTransport>(ep), cfg);
  std::atomic<bool> abort{false};
  session.run(abort);

  const SessionStats& st = session.stats();
  EXPECT_TRUE(st.declared_dead);
  EXPECT_FALSE(st.clean_close);
  EXPECT_EQ(st.connects, 0u);
  EXPECT_EQ(st.connect_failures, 3u) << "first attempt + 2 budgeted retries";
  EXPECT_EQ(session.state(), SessionState::kDead);

  WatermarkMux mux({&session.bgp_feed(), &session.flow_feed()}, 1024);
  mux.drain_feeds(64);
  EXPECT_TRUE(mux.exhausted()) << "a dead session must not gate the merge";
}

TEST(TransportSessionTest, NonRetryableOpenErrorIsImmediatelyFatal) {
  // A bad-address dial cannot be fixed by retrying: the session must die
  // on the first attempt with the status surfaced, not burn the whole
  // backoff budget on a config error.
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = "localhost";  // no resolver: inet_pton rejects hostnames
  ep.port = 1;
  SessionConfig cfg = fast_config();
  cfg.backoff = {1, 2, /*budget=*/50, false};
  Session session("s0", std::make_unique<DialTransport>(ep), cfg);
  std::atomic<bool> abort{false};
  session.run(abort);

  const SessionStats& st = session.stats();
  EXPECT_TRUE(st.declared_dead);
  EXPECT_EQ(st.connect_failures, 1u) << "no retries on a config error";
  EXPECT_FALSE(st.fatal_error.empty());
  EXPECT_EQ(session.state(), SessionState::kDead);

  WatermarkMux mux({&session.bgp_feed(), &session.flow_feed()}, 1024);
  mux.drain_feeds(64);
  EXPECT_TRUE(mux.exhausted()) << "a dead session must not gate the merge";
}

TEST(TransportSessionTest, HostnameEndpointIsASetupError) {
  // Specs are numeric-IPv4 only; a hostname must fail at parse time so
  // run_live reports a setup error instead of starting a doomed session.
  EXPECT_FALSE(Endpoint::parse("tcp:localhost:4000").ok());
  EXPECT_TRUE(Endpoint::parse("tcp:127.0.0.1:4000").ok());
  EXPECT_TRUE(Endpoint::parse("tcp:0.0.0.0:0").ok());
}

TEST(TransportSessionTest, FifoSessionDeliversAndClosesCleanly) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kFifo;
  ep.path = ::testing::TempDir() + "bw_sess_fifo.pipe";
  std::remove(ep.path.c_str());
  auto listener = ListenTransport::bind(ep);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();

  Session session("s0", std::move(*listener), fast_config());
  std::atomic<bool> abort{false};
  std::thread runner([&] { session.run(abort); });

  std::thread emitter([&] {
    Connection conn = dial(ep);  // open_fifo_writer waits for the reader
    std::string wire;
    wire += frame_update(update_at(100));
    wire += frame_flow(flow_at(200));
    wire += frame_close(300);
    ASSERT_TRUE(conn.write_all(wire).ok());
  });
  emitter.join();
  runner.join();

  const SessionStats& st = session.stats();
  EXPECT_TRUE(st.clean_close);
  EXPECT_EQ(st.connects, 1u);
  EXPECT_EQ(st.events_bgp, 1u);
  EXPECT_EQ(st.events_flow, 1u);
  EXPECT_EQ(st.close_time, 300);
  EXPECT_EQ(drain_session(session).size(), 2u);
  std::remove(ep.path.c_str());
}

TEST(TransportSessionTest, GarbageOnALiveLinkResyncsWithExactAccounting) {
  const Endpoint ep = unix_endpoint("bw_sess_garbage.sock");
  auto listener = ListenTransport::bind(ep);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();

  Session session("s0", std::move(*listener), fast_config());
  std::atomic<bool> abort{false};
  std::thread runner([&] { session.run(abort); });

  const std::size_t kNoise = 97;
  std::thread emitter([&] {
    util::Rng rng(5);
    std::string wire;
    for (std::size_t i = 0; i < kNoise; ++i) {
      char c = static_cast<char>(rng.index(256));
      if (c == 'b') c = '#';
      wire.push_back(c);
    }
    wire += frame_update(update_at(100));
    wire += frame_flow(flow_at(200));
    wire += frame_close(300);
    Connection conn = dial(ep);
    ASSERT_TRUE(conn.write_all(wire).ok());
  });
  emitter.join();
  runner.join();

  const SessionStats& st = session.stats();
  EXPECT_TRUE(st.clean_close);
  EXPECT_EQ(st.frames, 3u);
  EXPECT_EQ(st.decode.discarded_bytes, kNoise);
  EXPECT_EQ(st.decode.resyncs, 1u);
  EXPECT_EQ(drain_session(session).size(), 2u);
}

TEST(TransportSessionTest, SilenceBeyondIdleTimeoutIsAStallDisconnect) {
  const Endpoint ep = unix_endpoint("bw_sess_idle.sock");
  auto listener = ListenTransport::bind(ep);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();

  SessionConfig cfg = fast_config();
  cfg.read_idle_timeout = 100;
  cfg.backoff.budget = 0;  // the stall verdict is immediately fatal
  Session session("s0", std::move(*listener), cfg);
  std::atomic<bool> abort{false};
  std::thread runner([&] { session.run(abort); });

  std::thread emitter([&] {
    Connection conn = dial(ep);
    ASSERT_TRUE(conn.write_all(frame_update(update_at(100))).ok());
    // Hold the link open, silent, until the session gives up on us.
    while (!session.finished()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  runner.join();
  emitter.join();

  const SessionStats& st = session.stats();
  EXPECT_EQ(st.idle_timeouts, 1u);
  EXPECT_TRUE(st.declared_dead);
  EXPECT_FALSE(st.clean_close);
  EXPECT_EQ(st.events_bgp, 1u);
  EXPECT_EQ(drain_session(session).size(), 1u)
      << "events before the stall still deliver";
}

// --- live vs lockstep convergence (ISSUE 9 acceptance, in process) -------

core::Dataset small_corpus(std::uint64_t seed) {
  gen::ScenarioConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = seed;
  cfg.period = {0, util::days(8)};
  return core::run_scenario(cfg, std::string{}).dataset;
}

std::string fmt(const core::Alert& a) {
  std::ostringstream os;
  os << core::to_string(a.kind) << " " << a.time << " " << a.prefix.to_string()
     << " " << a.origin << " " << a.value << " " << a.message;
  return os.str();
}

std::vector<std::string> run_batch(const core::Dataset& dataset) {
  std::vector<std::string> alerts;
  core::RtbhMonitor monitor(
      core::MonitorConfig{},
      [&alerts](const core::Alert& a) { alerts.push_back(fmt(a)); });
  replay_batch(dataset, monitor);
  return alerts;
}

/// The full corpus in batch-merge order (time, update-before-flow), as
/// one bwsf0001 byte string ending in a Close at the period end — exactly
/// what bw-feed emits without --chaos. Heartbeats are interleaved at the
/// current merge time: without them one quiet feed (say BGP, after its
/// last update) would gate the mux forever while the other's events pile
/// into the reorder heap — live sources must keep promising progress.
std::string corpus_wire(const core::Dataset& dataset) {
  const auto& updates = dataset.blackhole_updates();
  const auto& flows = dataset.flows();
  std::string wire;
  std::size_t ui = 0;
  std::size_t fi = 0;
  std::size_t since_heartbeat = 0;
  while (ui < updates.size() || fi < flows.size()) {
    const bool take_update =
        ui < updates.size() &&
        (fi >= flows.size() || updates[ui].time <= flows[fi].time);
    util::TimeMs t = 0;
    if (take_update) {
      t = updates[ui].time;
      wire += frame_update(updates[ui++]);
    } else {
      t = flows[fi].time;
      wire += frame_flow(flows[fi++]);
    }
    if (++since_heartbeat >= 256) {
      wire += frame_heartbeat(t);
      since_heartbeat = 0;
    }
  }
  wire += frame_close(dataset.period().end);
  return wire;
}

TEST(TransportLiveTest, FaultFreeLiveSessionMatchesLockstepReplayAcrossSeeds) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const core::Dataset dataset = small_corpus(seed);
    const std::vector<std::string> batch = run_batch(dataset);
    ASSERT_FALSE(batch.empty()) << "corpus produced no alerts";

    const Endpoint ep =
        unix_endpoint("bw_live_" + std::to_string(seed) + ".sock");
    LiveConfig live;
    live.listen_specs = {ep.to_string()};
    live.session.connect_timeout = 10 * util::kSecond;
    IngestOptions ingest;
    ingest.block_deadline = 10 * util::kMinute;  // never shed

    std::thread emitter([&] {
      const std::string wire = corpus_wire(dataset);
      Connection conn = dial(ep);
      ASSERT_TRUE(conn.write_all(wire).ok());
    });

    std::vector<std::string> alerts;
    core::RtbhMonitor monitor(
        core::MonitorConfig{},
        [&alerts](const core::Alert& a) { alerts.push_back(fmt(a)); });
    const auto stats = run_live(monitor, live, ingest);
    emitter.join();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();

    EXPECT_FALSE(stats->watchdog_fired);
    EXPECT_EQ(stats->close_time, dataset.period().end);
    EXPECT_EQ(stats->delivered_bgp, dataset.blackhole_updates().size());
    EXPECT_EQ(stats->delivered_flow, dataset.flows().size());
    EXPECT_EQ(stats->mux.late_dropped, 0u);
    ASSERT_EQ(stats->sessions.size(), 1u);
    EXPECT_TRUE(stats->sessions[0].clean_close);
    EXPECT_EQ(stats->sessions[0].shed.shed_total, 0u);
    ASSERT_EQ(alerts, batch)
        << "a fault-free live session must match the lockstep replay "
           "byte-for-byte";
  }
}

}  // namespace
}  // namespace bw::stream::transport
