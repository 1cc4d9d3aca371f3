#include "stream/transport/session.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bw::stream::transport {

namespace {

/// Granularity of abort/idle checks while blocked in a read or a sleep.
constexpr util::DurationMs kPollSlice = 50;
/// Largest single read from the connection.
constexpr std::size_t kReadChunk = 64 * 1024;

obs::Counter& transport_counter(const char* what) {
  return obs::Registry::global().counter(std::string("stream.transport.") +
                                         what);
}

void sleep_slice(util::DurationMs ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

std::string_view to_string(SessionState s) {
  switch (s) {
    case SessionState::kConnecting: return "connecting";
    case SessionState::kEstablished: return "established";
    case SessionState::kDraining: return "draining";
    case SessionState::kBackoff: return "backoff";
    case SessionState::kClosedClean: return "closed";
    case SessionState::kDead: return "dead";
  }
  return "?";
}

Session::Session(std::string name, std::unique_ptr<Transport> transport,
                 SessionConfig config, const IngestOptions& ingest)
    : name_(std::move(name)),
      transport_(std::move(transport)),
      cfg_(std::move(config)),
      bgp_feed_(ingest),
      flow_feed_(ingest),
      backoff_(cfg_.backoff, cfg_.backoff_seed) {}

void Session::enter(SessionState s) {
  state_.store(s, std::memory_order_relaxed);
}

void Session::flush_batches() {
  bgp_feed_.flush(bgp_room_);
  flow_feed_.flush(flow_room_);
}

void Session::handle_frame(const Frame& frame) {
  static obs::Counter& frames = transport_counter("frames");
  static obs::Counter& heartbeats = transport_counter("heartbeats");
  static obs::Counter& payload_errors = transport_counter("payload_errors");
  frames.add();
  ++stats_.frames;
  const auto payload_error = [&] {
    payload_errors.add();
    ++stats_.payload_errors;
  };
  switch (frame.type) {
    case FrameType::kBgpUpdate:
      if (auto update = decode_update(frame.payload); update.ok()) {
        bgp_feed_.stage(bgp_feed_.stamp(*update), bgp_room_);
      } else {
        payload_error();
      }
      return;
    case FrameType::kFlow:
      if (auto flow = decode_flow(frame.payload); flow.ok()) {
        flow_feed_.stage(flow_feed_.stamp(*flow), flow_room_);
      } else {
        payload_error();
      }
      return;
    case FrameType::kHeartbeat: {
      auto t = decode_time(frame.payload);
      if (!t.ok()) {
        payload_error();
        return;
      }
      heartbeats.add();
      ++stats_.heartbeats;
      // A heartbeat promises "this source's clock reached t": flush what
      // the promise must not overtake, then let both feeds advance so a
      // quiet feed never gates the merge.
      flush_batches();
      bgp_feed_.advance_watermark(*t);
      flow_feed_.advance_watermark(*t);
      return;
    }
    case FrameType::kClose: {
      auto t = decode_time(frame.payload);
      if (t.ok()) {
        stats_.close_time = std::max(stats_.close_time, *t);
      } else {
        payload_error();
      }
      return;  // pump() notices the close via stats_.clean_close
    }
  }
}

Session::PumpEnd Session::pump(Connection& conn,
                               const std::atomic<bool>& abort) {
  static obs::Counter& bytes_ctr = transport_counter("bytes");
  FrameDecoder decoder;
  obs::StopWatch idle;

  // Every way out drains: stage the session as draining, land what the
  // batches hold, and fold the decoder's accounting into the stats.
  const auto end = [&](PumpEnd why) {
    enter(SessionState::kDraining);
    flush_batches();
    decoder.finish();
    const DecodeStats& d = decoder.stats();
    stats_.decode.bytes_fed += d.bytes_fed;
    stats_.decode.frames += d.frames;
    stats_.decode.frame_bytes += d.frame_bytes;
    stats_.decode.discarded_bytes += d.discarded_bytes;
    stats_.decode.resyncs += d.resyncs;
    stats_.decode.crc_failures += d.crc_failures;
    stats_.decode.bad_lengths += d.bad_lengths;
    transport_counter("discarded_bytes").add(d.discarded_bytes);
    transport_counter("resyncs").add(d.resyncs);
    transport_counter("crc_failures").add(d.crc_failures);
    return why;
  };

  for (;;) {
    if (abort.load(std::memory_order_relaxed)) return end(PumpEnd::kAborted);
    auto chunk = conn.read_some(kReadChunk, kPollSlice);
    if (!chunk.ok()) {
      if (chunk.status().code() == util::StatusCode::kUnavailable) {
        // Poll slice elapsed with no bytes; only fatal past the idle bound.
        if (cfg_.read_idle_timeout > 0 &&
            static_cast<util::DurationMs>(idle.elapsed_us() / 1000) >
                cfg_.read_idle_timeout) {
          return end(PumpEnd::kIdleTimeout);
        }
        continue;
      }
      return end(PumpEnd::kDisconnect);
    }
    if (chunk->empty()) {  // orderly EOF with no kClose frame: abnormal
      return end(PumpEnd::kDisconnect);
    }
    idle.restart();
    bytes_ctr.add(chunk->size());
    decoder.feed(*chunk);
    while (auto frame = decoder.next()) {
      handle_frame(*frame);
      if (frame->type == FrameType::kClose) return end(PumpEnd::kCleanClose);
    }
  }
}

void Session::run(const std::atomic<bool>& abort) {
  static obs::Counter& connects = transport_counter("connects");
  static obs::Counter& connect_failures = transport_counter("connect_failures");
  static obs::Counter& reconnects = transport_counter("reconnects");
  static obs::Counter& disconnects = transport_counter("disconnects");
  static obs::Counter& idle_timeouts = transport_counter("idle_timeouts");
  static obs::Counter& dead_feeds = transport_counter("dead_feeds");
  static obs::Counter& clean_closes = transport_counter("clean_closes");

  bgp_room_ = bgp_feed_.wait_for_room(abort);
  flow_room_ = flow_feed_.wait_for_room(abort);
  while (!abort.load(std::memory_order_relaxed)) {
    enter(SessionState::kConnecting);
    auto conn = transport_->open(cfg_.connect_timeout);
    if (!conn.ok()) {
      connect_failures.add();
      ++stats_.connect_failures;
      if (conn.status().code() != util::StatusCode::kUnavailable) {
        // A non-transient open failure (bad address, unsupported
        // platform) cannot be fixed by retrying: declare the feed dead
        // now and surface the status instead of burning the whole
        // backoff budget on a config error.
        stats_.fatal_error = conn.status().to_string();
        stats_.declared_dead = true;
        dead_feeds.add();
        enter(SessionState::kDead);
        break;
      }
    } else {
      connects.add();
      ++stats_.connects;
      if (stats_.connects > 1) {
        reconnects.add();
        ++stats_.reconnects;
      }
      backoff_.reset();  // an established link earns a fresh budget
      enter(SessionState::kEstablished);
      const PumpEnd end = pump(*conn, abort);
      if (end == PumpEnd::kCleanClose) {
        stats_.clean_close = true;
        clean_closes.add();
        enter(SessionState::kClosedClean);
        break;
      }
      if (end == PumpEnd::kAborted) break;
      if (end == PumpEnd::kIdleTimeout) {
        idle_timeouts.add();
        ++stats_.idle_timeouts;
      }
      disconnects.add();
      ++stats_.disconnects;
    }
    enter(SessionState::kBackoff);
    const auto sleep = backoff_.next();
    if (!sleep.has_value()) {
      stats_.declared_dead = true;
      dead_feeds.add();
      enter(SessionState::kDead);
      break;
    }
    for (util::DurationMs left = *sleep;
         left > 0 && !abort.load(std::memory_order_relaxed);
         left -= kPollSlice) {
      sleep_slice(std::min(left, kPollSlice));
    }
  }
  // Every exit path ends the feeds: a finished (or killed) session must
  // never gate the watermark merge.
  flush_batches();
  bgp_feed_.close();
  flow_feed_.close();
  bgp_room_ = flow_room_ = nullptr;  // they refer to `abort`
  stats_.events_bgp = bgp_feed_.produced();
  stats_.events_flow = flow_feed_.produced();
  stats_.shed = bgp_feed_.shed_stats();
  stats_.shed += flow_feed_.shed_stats();
  finished_.store(true, std::memory_order_release);
}

// --- run_live -------------------------------------------------------------

util::Result<LiveStats> run_live(core::RtbhMonitor& monitor,
                                 const LiveConfig& config,
                                 const IngestOptions& ingest) {
  const obs::TraceSpan span("stream.live", "stream");
  if (config.listen_specs.empty() && config.connect_specs.empty()) {
    return util::invalid_argument("run_live: no endpoints configured");
  }

  // Bind every listener before any session starts: bind errors are setup
  // errors (fail fast), and a bound socket accepts even if the peer dials
  // before the session thread spins up.
  std::vector<std::unique_ptr<Session>> sessions;
  const auto add_session = [&](std::unique_ptr<Transport> transport) {
    std::string name = transport->describe();
    SessionConfig cfg = config.session;
    cfg.backoff_seed = config.session.backoff_seed + sessions.size();
    sessions.push_back(std::make_unique<Session>(
        std::move(name), std::move(transport), cfg, ingest));
  };
  for (const std::string& spec : config.listen_specs) {
    auto ep = Endpoint::parse(spec);
    if (!ep.ok()) return ep.status().with_context("run_live");
    auto listener = ListenTransport::bind(*ep);
    if (!listener.ok()) return listener.status().with_context("run_live");
    add_session(std::move(*listener));
  }
  for (const std::string& spec : config.connect_specs) {
    auto ep = Endpoint::parse(spec);
    if (!ep.ok()) return ep.status().with_context("run_live");
    add_session(std::make_unique<DialTransport>(*ep));
  }

  std::vector<FeedRing*> feeds;
  std::vector<Producer> producers;
  for (auto& s : sessions) {
    feeds.push_back(&s->bgp_feed());
    feeds.push_back(&s->flow_feed());
    producers.emplace_back([session = s.get()](const std::atomic<bool>& abort) {
      session->run(abort);
    });
  }
  WatermarkMux mux(feeds, ingest.max_reorder);
  Deliverer deliver(monitor, config.rolling);

  LiveStats stats;
  stats.watchdog_fired =
      consume_threaded(mux, deliver, producers, config.watchdog);
  if (stats.watchdog_fired) transport_counter("watchdog_fired").add();
  stats.mux = mux.stats();
  stats.delivered_bgp = deliver.delivered_bgp;
  stats.delivered_flow = deliver.delivered_flow;
  for (auto& s : sessions) {
    stats.sessions.push_back(s->stats());
    stats.close_time = std::max(stats.close_time, s->stats().close_time);
  }
  // Finish at the clean-close end time (the live analogue of the corpus
  // period end); an abnormal run falls back to the last delivered event so
  // open windows still flush.
  util::TimeMs finish_at = std::max(stats.close_time, deliver.last_time);
  if (finish_at == std::numeric_limits<util::TimeMs>::min()) finish_at = 0;
  stats.finish_time = finish_at;
  monitor.finish(finish_at);
  return stats;
}

}  // namespace bw::stream::transport
