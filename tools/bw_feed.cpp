// bw-feed: emit a corpus over the live wire protocol — the stand-in for a
// route-server tap + IPFIX exporter that bw-monitor's --listen/--connect
// modes ingest.
//
//   bw-feed CORPUS (--serve SPEC | --connect SPEC | --out FILE)
//           [--heartbeat MS] [--speed N]
//           [--chaos SPEC] [--chaos-seed N] [--chaos-log FILE]
//           [--give-up MS]
//           [--strict | --skip-bad-rows | --repair]
//           [--metrics-out FILE] [--trace-out FILE]
//
// Events leave in the batch merge order (time ascending, updates before
// flows at equal timestamps) as bwsf0001 frames, a heartbeat every
// --heartbeat ms of event time, and one kClose frame carrying the corpus
// period end — so a fault-free live session feeds bw-monitor the exact
// sequence a --replay run does, byte-identical alerts included.
//
// --chaos arms the transport fault script (testing/transport_fault.hpp):
// scripted disconnects, stalls, torn/corrupted frames, garbage splices, and
// byte-wise drip, all drawn from --chaos-seed, with the ground truth of
// every applied fault written to --chaos-log. After a scripted cut the
// emitter re-establishes the link and resumes with the next frame: no
// non-faulted frame is ever lost.
//
// Exit codes: 0 ok, 2 usage, 3 data/link error, 4 internal.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "cli.hpp"
#include "obs/metrics.hpp"
#include "stream/ingest.hpp"
#include "stream/transport/frame.hpp"
#include "stream/transport/socket.hpp"
#include "testing/transport_fault.hpp"
#include "util/atomic_file.hpp"

namespace {

using namespace bw;
using stream::transport::Connection;
using stream::transport::Endpoint;
using stream::transport::Transport;

void usage() {
  std::cerr
      << "usage: bw-feed CORPUS (--serve SPEC | --connect SPEC | --out FILE)\n"
         "               [--heartbeat MS] [--speed N]\n"
         "               [--chaos SPEC] [--chaos-seed N] [--chaos-log FILE]\n"
         "               [--give-up MS]\n"
         "  CORPUS is a .bwds file or a CSV corpus directory.\n"
         "  SPEC: tcp:HOST:PORT | unix:PATH | fifo:PATH\n"
         "  --serve: bind SPEC and feed whoever connects\n"
         "  --connect: dial SPEC (a bw-monitor --listen endpoint)\n"
         "  --out: write the framed byte stream to FILE instead of a link\n"
         "         (streamed to FILE.tmp, renamed to FILE at the end)\n"
         "  --heartbeat MS: heartbeat frame per MS of event time (default\n"
         "                  1000; 0 disables)\n"
         "  --speed N: corpus-time/wall-clock ratio (0 = as fast as possible)\n"
         "  --chaos SPEC: scripted wire faults, comma-separated\n"
         "                kind:FRAME[:ARG] with kinds disconnect | stall |\n"
         "                torn | corrupt | garbage | drip\n"
         "  --chaos-log FILE: ground-truth log of every applied fault\n"
         "  --give-up MS: max wait for the peer per (re)connect (default\n"
         "                30000)\n"
      << tools::kStrictnessUsage << tools::kObsUsage;
}

obs::Counter& feed_counter(const char* what) {
  return obs::Registry::global().counter(std::string("feed.") + what);
}

/// The emitter's side of the link: (re)opens through the transport with
/// patience, executes wire ops, counts reconnects.
struct Wire {
  std::unique_ptr<Transport> transport;
  Connection conn;
  util::DurationMs give_up{30 * util::kSecond};
  std::uint64_t opens{0};
  std::uint64_t bytes{0};

  util::Status ensure_open() {
    if (conn.open()) return util::ok_status();
    obs::StopWatch waited;
    for (;;) {
      auto c = transport->open(500);
      if (c.ok()) {
        conn = std::move(*c);
        ++opens;
        return util::ok_status();
      }
      if (c.status().code() != util::StatusCode::kUnavailable ||
          static_cast<util::DurationMs>(waited.elapsed_us() / 1000) >
              give_up) {
        return c.status().with_context("bw-feed: " + transport->describe());
      }
    }
  }

  util::Status send(std::string_view frame_bytes) {
    if (util::Status st = ensure_open(); !st.ok()) return st;
    bytes += frame_bytes.size();
    return conn.write_all(frame_bytes);
  }

  void cut() { conn.close(); }
};

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string serve_spec;
  std::string connect_spec;
  std::string out_file;
  std::string chaos_spec;
  std::string chaos_log_out;
  std::uint64_t chaos_seed = 1;
  util::DurationMs heartbeat = 1000;
  util::DurationMs give_up = 30 * util::kSecond;
  double speed = 0.0;
  tools::StrictnessOptions strictness;
  tools::ObsOptions obs_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Strict integer value of this flag (tools::parse_int).
    const auto int_arg = [&](auto& out, long long min) {
      return tools::parse_int("bw-feed", arg, argv[++i], min, out);
    };
    if (obs_options.parse(argc, argv, i)) {
      continue;
    } else if (strictness.parse(arg)) {
      continue;
    } else if (arg == "--serve" && i + 1 < argc) {
      serve_spec = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_spec = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_file = argv[++i];
    } else if (arg == "--heartbeat" && i + 1 < argc) {
      if (!int_arg(heartbeat, 0)) return tools::kExitUsage;
    } else if (arg == "--speed" && i + 1 < argc) {
      speed = std::atof(argv[++i]);
      if (speed < 0) {
        std::cerr << "bw-feed: --speed must be >= 0\n";
        return tools::kExitUsage;
      }
    } else if (arg == "--give-up" && i + 1 < argc) {
      if (!int_arg(give_up, 1)) return tools::kExitUsage;
    } else if (arg == "--chaos" && i + 1 < argc) {
      chaos_spec = argv[++i];
    } else if (arg == "--chaos-seed" && i + 1 < argc) {
      chaos_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--chaos-log" && i + 1 < argc) {
      chaos_log_out = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return tools::kExitOk;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "bw-feed: unknown argument: " << arg << "\n";
      usage();
      return tools::kExitUsage;
    }
  }
  const int sinks = (serve_spec.empty() ? 0 : 1) +
                    (connect_spec.empty() ? 0 : 1) + (out_file.empty() ? 0 : 1);
  if (path.empty() || sinks != 1) {
    usage();
    return tools::kExitUsage;
  }
  obs_options.arm();

  try {
    auto loaded = tools::load_corpus(path, strictness.load_options);
    if (!tools::check("bw-feed", loaded.status())) return tools::kExitData;
    const core::Dataset& dataset = loaded.value();

    std::optional<testing::TransportFaultScript> chaos;
    if (!chaos_spec.empty()) {
      auto plan = testing::parse_transport_fault_spec(chaos_spec, chaos_seed);
      if (!tools::check("bw-feed", plan.status())) return tools::kExitUsage;
      chaos.emplace(std::move(plan).value());
    }

    Wire wire;
    wire.give_up = give_up;
    std::optional<util::AtomicFile> out;
    if (!tools::open_output("bw-feed", out_file, out)) return tools::kExitData;
    if (!serve_spec.empty() || !connect_spec.empty()) {
      const std::string& spec =
          serve_spec.empty() ? connect_spec : serve_spec;
      auto ep = Endpoint::parse(spec);
      if (!tools::check("bw-feed", ep.status())) return tools::kExitUsage;
      if (!serve_spec.empty()) {
        auto listener = stream::transport::ListenTransport::bind(*ep);
        if (!tools::check("bw-feed", listener.status())) {
          return tools::kExitData;
        }
        std::cout << "bw-feed: serving " << (*listener)->bound().to_string()
                  << "\n";
        wire.transport = std::move(*listener);
      } else {
        wire.transport = std::make_unique<stream::transport::DialTransport>(*ep);
      }
    }

    std::uint64_t frames_emitted = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t events_bgp = 0;
    std::uint64_t events_flow = 0;

    // One frame out, through the chaos script when armed. Every scripted
    // disconnect is followed by a patient re-establish before the next
    // send — a cut never loses a frame the script didn't claim.
    const auto emit = [&](const std::string& frame_bytes) -> util::Status {
      const std::uint64_t index = frames_emitted++;
      if (out) {
        if (!chaos.has_value()) {
          out->stream() << frame_bytes;
          return util::ok_status();
        }
        for (auto& op : chaos->apply(index, frame_bytes)) {
          if (op.kind == testing::WireOp::Kind::kSend) {
            out->stream() << op.bytes;
          }
        }
        return util::ok_status();
      }
      if (!chaos.has_value()) return wire.send(frame_bytes);
      for (auto& op : chaos->apply(index, frame_bytes)) {
        switch (op.kind) {
          case testing::WireOp::Kind::kSend:
            if (util::Status st = wire.send(op.bytes); !st.ok()) return st;
            break;
          case testing::WireOp::Kind::kDisconnect:
            wire.cut();
            break;
          case testing::WireOp::Kind::kSleep:
            std::this_thread::sleep_for(
                std::chrono::milliseconds(op.sleep_ms));
            break;
        }
      }
      return util::ok_status();
    };

    // Events leave in the batch merge order. That order is time-sorted,
    // so a heartbeat at the current merge time is always a safe promise
    // for both feeds.
    stream::Pacer pacer(speed);
    std::optional<util::TimeMs> last_heartbeat;  // the first event's time
    util::Status link = util::ok_status();
    const auto send = [&](util::TimeMs t, const std::string& frame_bytes) {
      pacer.wait_until(t);
      if (!last_heartbeat) last_heartbeat = t;
      if (heartbeat > 0 && t - *last_heartbeat >= heartbeat) {
        last_heartbeat = t;
        ++heartbeats;
        link = emit(stream::transport::frame_heartbeat(t));
        if (!link.ok()) return false;
      }
      link = emit(frame_bytes);
      return link.ok();
    };
    stream::for_each_in_merge_order(
        dataset,
        [&](const bgp::Update& u) {
          ++events_bgp;
          return send(u.time, stream::transport::frame_update(u));
        },
        [&](const flow::FlowRecord& f) {
          ++events_flow;
          return send(f.time, stream::transport::frame_flow(f));
        });
    if (link.ok()) {
      link = emit(stream::transport::frame_close(dataset.period().end));
    }
    wire.cut();

    if (!chaos_log_out.empty() && chaos.has_value()) {
      const util::Status st =
          util::atomic_write_file(chaos_log_out, chaos->log().summary());
      if (!tools::check("bw-feed", st)) return tools::kExitData;
    }
    if (!tools::commit_output("bw-feed", out)) return tools::kExitData;
    if (!tools::check("bw-feed", link)) return tools::kExitData;

    const std::uint64_t reconnects = wire.opens > 0 ? wire.opens - 1 : 0;
    feed_counter("frames").add(frames_emitted);
    feed_counter("events_bgp").add(events_bgp);
    feed_counter("events_flow").add(events_flow);
    feed_counter("heartbeats").add(heartbeats);
    feed_counter("bytes").add(wire.bytes);
    feed_counter("reconnects").add(reconnects);
    std::cout << "bw-feed: " << frames_emitted << " frames (" << events_bgp
              << " updates, " << events_flow << " flows, " << heartbeats
              << " heartbeats, 1 close), " << wire.bytes << " bytes, "
              << reconnects << " reconnects\n";
    if (chaos.has_value()) {
      std::cout << "bw-feed: chaos applied " << chaos->log().entries.size()
                << " fault(s): " << chaos->log().lost_frames()
                << " frame(s) lost, " << chaos->log().discarded_bytes()
                << " byte(s) to discard\n";
    }

    obs::Manifest manifest;
    manifest.tool = "bw-feed";
    manifest.corpus = path;
    manifest.populate_from_metrics(obs::Registry::global().snapshot());
    if (!obs_options.emit("bw-feed", manifest)) return tools::kExitData;
    return tools::kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "bw-feed: internal error: " << e.what() << "\n";
    return tools::kExitInternal;
  }
}
