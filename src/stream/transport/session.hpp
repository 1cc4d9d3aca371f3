// Supervised live feed sessions: the layer between a flaky byte-stream
// endpoint and the SPSC feed rings the WatermarkMux merges.
//
// One Session owns one remote source (a dialed or accepted connection) and
// the pair of feed rings (BGP + flow) its frames are routed into. Around
// the connection it runs a small supervisor state machine:
//
//   kConnecting --ok--> kEstablished --EOF/err/idle--> kDraining
//        ^                    |                            |
//        |                 kClose frame                 kBackoff
//        |                    v                            |
//        |              kClosedClean        budget left ---+--- exhausted
//        +---- jittered sleep <-------------+                      |
//                                                                kDead
//
// Reconnects follow a util::BackoffPolicy (full jitter, capped, bounded
// budget); a successful connect resets the schedule. When the budget runs
// out the session is declared dead and — critically — closes both of its
// feeds, so a dead source stops gating the watermark merge and every event
// already buffered is released immediately instead of stalling the mux
// forever.
//
// Heartbeat frames advance both feed watermarks (a quiet feed must not
// gate); a kClose frame carries the stream's end time and ends the session
// cleanly. Every transition, retry, resync, and discarded byte is counted
// in the stream.transport.* metrics and mirrored in SessionStats — the
// numbers the chaos harness reconciles against its ground-truth fault log.
//
// Each feed is a stream::Feed of the shared ingest core, and run_live()
// drives the sessions with the same threaded consumer a threaded replay
// uses (stream/ingest.hpp): bind/dial the endpoints, one producer thread
// per session, the caller's thread consuming the mux into an RtbhMonitor
// until every session has finished, with an optional wall-clock watchdog
// that aborts (and loudly counts) a hung run instead of hanging the
// process.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "stream/ingest.hpp"
#include "stream/transport/frame.hpp"
#include "stream/transport/socket.hpp"
#include "util/backoff.hpp"
#include "util/time.hpp"

namespace bw::stream::transport {

enum class SessionState : std::uint8_t {
  kConnecting,
  kEstablished,
  kDraining,
  kBackoff,
  kClosedClean,
  kDead,
};

[[nodiscard]] std::string_view to_string(SessionState s);

struct SessionConfig {
  /// Reconnect schedule. Budget exhaustion declares the session dead.
  util::BackoffConfig backoff{100, 5 * util::kSecond, 8, true};
  /// Seed of the jitter draw — reconnect schedules are reproducible.
  std::uint64_t backoff_seed{1};
  /// Bound on one connect/accept attempt.
  util::DurationMs connect_timeout{5 * util::kSecond};
  /// Silence on an established connection longer than this counts as a
  /// disconnect (stall detection). <= 0 disables the idle check.
  util::DurationMs read_idle_timeout{10 * util::kSecond};
};

/// Everything one session did, readable after run() returns.
struct SessionStats {
  std::uint64_t connects{0};          ///< successful opens
  std::uint64_t connect_failures{0};  ///< opens that failed or timed out
  std::uint64_t reconnects{0};        ///< successful opens after the first
  std::uint64_t disconnects{0};       ///< established links that broke
  std::uint64_t idle_timeouts{0};     ///< disconnects declared by silence
  std::uint64_t frames{0};            ///< CRC-verified frames decoded
  std::uint64_t heartbeats{0};
  std::uint64_t events_bgp{0};
  std::uint64_t events_flow{0};
  std::uint64_t payload_errors{0};  ///< CRC-valid frame, malformed payload
  DecodeStats decode;               ///< summed over all connections
  ShedStats shed;
  bool clean_close{false};
  bool declared_dead{false};
  /// Set when the session died on a non-retryable open() error (bad
  /// address, unsupported platform) instead of backoff exhaustion.
  std::string fatal_error;
  /// End time carried by the kClose frame; kMinTime when none arrived.
  util::TimeMs close_time{std::numeric_limits<util::TimeMs>::min()};
};

/// One supervised live source. Construct, hand bgp_feed()/flow_feed() to a
/// WatermarkMux, then call run() on a producer thread. `ingest` sizes the
/// feeds and sets their shedding policy.
class Session {
 public:
  Session(std::string name, std::unique_ptr<Transport> transport,
          SessionConfig config, const IngestOptions& ingest = {});

  [[nodiscard]] Feed& bgp_feed() noexcept { return bgp_feed_; }
  [[nodiscard]] Feed& flow_feed() noexcept { return flow_feed_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Supervisor loop: connect, pump frames, reconnect on failure, until a
  /// clean close, a dead declaration, or `abort`. Closes both feeds on
  /// every exit path — a finished session never gates the mux.
  void run(const std::atomic<bool>& abort);

  /// Valid once run() has returned.
  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }
  /// Observable from other threads while run() executes.
  [[nodiscard]] SessionState state() const noexcept {
    return state_.load(std::memory_order_relaxed);
  }
  /// True once run() has returned (on any path, including abort).
  [[nodiscard]] bool finished() const noexcept {
    return finished_.load(std::memory_order_acquire);
  }

 private:
  enum class PumpEnd : std::uint8_t {
    kCleanClose,   ///< kClose frame seen
    kDisconnect,   ///< EOF or broken link
    kIdleTimeout,  ///< read_idle_timeout of silence
    kAborted,      ///< external abort flag
  };

  PumpEnd pump(Connection& conn, const std::atomic<bool>& abort);
  void handle_frame(const Frame& frame);
  void flush_batches();
  void enter(SessionState s);

  std::string name_;
  std::unique_ptr<Transport> transport_;
  SessionConfig cfg_;
  Feed bgp_feed_;
  Feed flow_feed_;
  util::BackoffPolicy backoff_;
  std::atomic<SessionState> state_{SessionState::kConnecting};
  std::atomic<bool> finished_{false};
  /// The feeds' make-room policies, bound to run()'s abort flag.
  Shedder::MakeRoom bgp_room_;
  Shedder::MakeRoom flow_room_;
  SessionStats stats_;
};

// --- full live pipeline ---------------------------------------------------

struct LiveConfig {
  /// Endpoint specs to bind and accept from ("tcp:HOST:PORT" | "unix:PATH"
  /// | "fifo:PATH"); one session each.
  std::vector<std::string> listen_specs;
  /// Endpoint specs to dial out to; one session each.
  std::vector<std::string> connect_specs;
  SessionConfig session;
  /// Wall-clock bound on the whole run; exceeded => abort every session,
  /// count stream.transport.watchdog_fired, and return what was delivered.
  /// <= 0 disables the watchdog.
  util::DurationMs watchdog{0};
  /// Rolling incremental kernels, fed every delivered event after the
  /// monitor saw it, as in ReplayOptions::rolling. The caller finishes it
  /// at LiveStats::finish_time.
  incremental::RollingReporter* rolling{nullptr};
};

struct LiveStats {
  std::vector<SessionStats> sessions;
  MuxStats mux;
  std::uint64_t delivered_bgp{0};
  std::uint64_t delivered_flow{0};
  /// max over sessions of the kClose end time; the monitor finished here.
  util::TimeMs close_time{std::numeric_limits<util::TimeMs>::min()};
  /// The event time monitor.finish() was called with (period end for the
  /// run); a rolling reporter should finish at the same instant.
  util::TimeMs finish_time{0};
  bool watchdog_fired{false};

  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_bgp + delivered_flow;
  }
};

/// Run every configured session concurrently, merge their feeds through a
/// WatermarkMux, and deliver into `monitor` in (time, kind, seq) order.
/// `ingest` carries the ring/shed/reorder knobs a replay takes too.
/// Binds all listeners before accepting anything (ephemeral ports are
/// resolvable via the error-free bind), finishes the monitor at the
/// latest clean-close time (falling back to the last delivered event).
/// Fails fast (kInvalidArgument/kUnavailable) only on setup errors; link
/// faults during the run are the sessions' problem and never an error.
[[nodiscard]] util::Result<LiveStats> run_live(
    core::RtbhMonitor& monitor, const LiveConfig& config,
    const IngestOptions& ingest = {});

}  // namespace bw::stream::transport
