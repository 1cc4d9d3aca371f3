// bw-monitor: replay a corpus chronologically through the online RTBH
// monitor and print every alert — what an operator tap on the route server
// + IPFIX feed would produce in real time.
//
//   bw-monitor CORPUS [--kinds attack,zombie,lowdrop] [--quiet]
//              [--strict | --skip-bad-rows | --repair]
//              [--replay [--speed N] [--lockstep]]
//              [--ring-capacity N] [--allowance MS] [--shed-mode MODE]
//              [--max-reorder N] [--inject-stream-fault SPEC]
//              [--rolling-out FILE] [--report-every MS] [--rolling-topk K]
//              [--rolling-approx N]
//              [--alerts-out FILE] [--shed-log FILE]
//              [--metrics-out FILE] [--trace-out FILE]
//   bw-monitor (--listen SPEC | --connect SPEC)... [live knobs] [outputs]
//
// CORPUS is a .bwds file or a CSV corpus directory (same strictness
// contract as bw-analyze). Without --replay the corpus is fed directly
// (batch merge); with --replay it is pushed through the full streaming
// ingest path — per-feed SPSC rings, shedding policy, watermark merge
// (docs/streaming.md). A no-shed streaming run produces the byte-identical
// alert sequence; under overload it degrades loudly and still exits 0.
//
// --rolling-out runs the incremental streaming kernels (drop-rate,
// port-stats, collateral, top-K ports) beside the monitor and writes
// rolling JSONL snapshots at --report-every event-time intervals plus a
// final one (docs/streaming.md, "Rolling reports"). Without --replay the
// same flag instead writes the single-line *batch oracle* — the batch
// kernels' figures in the shared rendering — which the convergence tests
// diff against a replay's final snapshot. In live mode, --rolling-context
// CORPUS supplies the measurement period and MAC attribution.
//
// Live mode replaces the corpus with bwsf0001-framed sessions (bw-feed is
// the emitter): each --listen SPEC binds and accepts, each --connect SPEC
// dials out, every session supervised with jittered-backoff reconnects and
// a bounded retry budget (docs/streaming.md, "Live sources"). A fault-free
// live session converges byte-identically with --replay; link faults
// degrade loudly (stream.transport.* counters) and still exit 0.
//
// Exit codes: 0 ok, 2 usage, 3 data error, 4 internal (see tools/cli.hpp).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_set>

#include "cli.hpp"
#include "core/collateral.hpp"
#include "core/drop_rate.hpp"
#include "core/event_merge.hpp"
#include "core/monitor.hpp"
#include "core/port_stats.hpp"
#include "stream/incremental/rolling.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/replay.hpp"
#include "stream/transport/session.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: bw-monitor CORPUS [--kinds LIST] [--quiet]\n"
         "                 [--strict | --skip-bad-rows | --repair]\n"
         "                 [--replay [--speed N] [--lockstep]]\n"
         "                 [--ring-capacity N] [--allowance MS]\n"
         "                 [--shed-mode block|drop-newest|priority]\n"
         "                 [--max-reorder N] [--inject-stream-fault SPEC]\n"
         "                 [--rolling-out FILE] [--report-every MS]\n"
         "                 [--rolling-topk K] [--rolling-approx N]\n"
         "                 [--alerts-out FILE] [--shed-log FILE]\n"
         "                 [--metrics-out FILE] [--trace-out FILE]\n"
         "       bw-monitor (--listen SPEC | --connect SPEC)...\n"
         "                 [--connect-timeout MS] [--read-idle MS]\n"
         "                 [--reconnect-budget N] [--backoff-base MS]\n"
         "                 [--backoff-cap MS] [--backoff-seed N]\n"
         "                 [--watchdog MS] [--rolling-context CORPUS]\n"
         "                 [ring/shed/reorder knobs]\n"
         "  CORPUS is a .bwds file or a CSV corpus directory.\n"
         "  SPEC: tcp:HOST:PORT | unix:PATH | fifo:PATH (live sessions fed\n"
         "        by bw-feed; repeatable, one supervised session each)\n"
         "  LIST: comma-separated of start,end,attack,lowdrop,zombie\n"
         "  --quiet: summary only\n"
         "  --replay: stream through rings + shedding + watermark merge\n"
         "  --speed N: corpus-time/wall-clock ratio (threaded replay; 0 =\n"
         "             as fast as possible)\n"
         "  --lockstep: deterministic replay interleave on one ingest\n"
         "             thread (rolling kernels' two halves on two lane\n"
         "             threads of their own when BW_THREADS >= 2)\n"
         "  --inject-stream-fault SPEC: slow:TICK:DRAIN | delay:US |\n"
         "             burst:N[:PAUSE_US] (comma-separated; forces overload)\n"
         "  --rolling-out FILE: rolling report snapshots, one JSONL line\n"
         "             per --report-every event-time interval plus a final\n"
         "             one; without --replay, the single-line batch oracle\n"
         "  --report-every MS: rolling snapshot cadence in event time\n"
         "             (0 = final snapshot only)\n"
         "  --rolling-topk K: top-K dst ports per snapshot (default 10)\n"
         "  --rolling-approx N: bound the port tracker to N space-saving\n"
         "             counters (default: exact counts)\n"
         "  --rolling-context CORPUS: period + MAC attribution for live\n"
         "             rolling reports\n"
         "  --alerts-out FILE: every alert, one stable line each\n"
         "  --shed-log FILE: ground-truth shed log, one line per decision\n"
         "  Output files stream to FILE.tmp as they are produced and are\n"
         "  renamed to FILE at the end of the run; a failed run leaves\n"
         "  neither.\n"
      << bw::tools::kStrictnessUsage << bw::tools::kObsUsage;
}

std::optional<bw::core::AlertKind> kind_from(const std::string& name) {
  using bw::core::AlertKind;
  if (name == "start") return AlertKind::kEventStarted;
  if (name == "end") return AlertKind::kEventEnded;
  if (name == "attack") return AlertKind::kAttackCorrelated;
  if (name == "lowdrop") return AlertKind::kLowDropRate;
  if (name == "zombie") return AlertKind::kZombieSuspect;
  return std::nullopt;
}

/// The stable one-line alert rendering: what --alerts-out files contain and
/// what the console prints. The replay-convergence check diffs these bytes.
std::string alert_line(const bw::core::Alert& alert) {
  std::ostringstream os;
  os << "[" << bw::util::format_time(alert.time) << "] "
     << bw::core::to_string(alert.kind) << ": " << alert.message;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bw;
  std::string path;
  std::string alerts_out;
  std::string shed_log_out;
  std::string rolling_out;
  std::string rolling_context;
  util::DurationMs report_every = 0;
  std::size_t rolling_topk = 10;
  std::size_t rolling_approx = 0;  // 0 = exact
  bool quiet = false;
  bool replay = false;
  tools::StrictnessOptions strictness;
  tools::ObsOptions obs_options;
  stream::ReplayOptions replay_options;
  stream::transport::LiveConfig live_config;
  std::unordered_set<core::AlertKind> kinds{core::AlertKind::kAttackCorrelated,
                                            core::AlertKind::kLowDropRate,
                                            core::AlertKind::kZombieSuspect};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Strict integer value of this flag (tools::parse_int).
    const auto int_arg = [&](auto& out, long long min) {
      return tools::parse_int("bw-monitor", arg, argv[++i], min, out);
    };
    if (obs_options.parse(argc, argv, i)) {
      continue;
    } else if (strictness.parse(arg)) {
      continue;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--replay") {
      replay = true;
    } else if (arg == "--lockstep") {
      replay_options.lockstep = true;
    } else if (arg == "--listen" && i + 1 < argc) {
      live_config.listen_specs.emplace_back(argv[++i]);
    } else if (arg == "--connect" && i + 1 < argc) {
      live_config.connect_specs.emplace_back(argv[++i]);
    } else if (arg == "--connect-timeout" && i + 1 < argc) {
      if (!int_arg(live_config.session.connect_timeout, 1)) {
        return tools::kExitUsage;
      }
    } else if (arg == "--read-idle" && i + 1 < argc) {
      live_config.session.read_idle_timeout = std::atoll(argv[++i]);
    } else if (arg == "--reconnect-budget" && i + 1 < argc) {
      if (!int_arg(live_config.session.backoff.budget, 0)) {
        return tools::kExitUsage;
      }
    } else if (arg == "--backoff-base" && i + 1 < argc) {
      if (!int_arg(live_config.session.backoff.base, 0)) {
        return tools::kExitUsage;
      }
    } else if (arg == "--backoff-cap" && i + 1 < argc) {
      if (!int_arg(live_config.session.backoff.cap, 1)) {
        return tools::kExitUsage;
      }
    } else if (arg == "--backoff-seed" && i + 1 < argc) {
      live_config.session.backoff_seed =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--watchdog" && i + 1 < argc) {
      live_config.watchdog = std::atoll(argv[++i]);
    } else if (arg == "--speed" && i + 1 < argc) {
      replay_options.speed = std::atof(argv[++i]);
      if (replay_options.speed < 0) {
        std::cerr << "bw-monitor: --speed must be >= 0\n";
        return tools::kExitUsage;
      }
    } else if (arg == "--ring-capacity" && i + 1 < argc) {
      if (!int_arg(replay_options.ring_capacity, 1)) return tools::kExitUsage;
    } else if (arg == "--allowance" && i + 1 < argc) {
      if (!int_arg(replay_options.allowance, 0)) return tools::kExitUsage;
    } else if (arg == "--max-reorder" && i + 1 < argc) {
      if (!int_arg(replay_options.max_reorder, 1)) return tools::kExitUsage;
    } else if (arg == "--shed-mode" && i + 1 < argc) {
      auto mode = stream::parse_shed_mode(argv[++i]);
      if (!tools::check("bw-monitor", mode.status())) return tools::kExitUsage;
      replay_options.shed_mode = mode.value();
    } else if (arg == "--inject-stream-fault" && i + 1 < argc) {
      auto plan = testing::parse_stream_fault_spec(argv[++i]);
      if (!tools::check("bw-monitor", plan.status())) return tools::kExitUsage;
      replay_options.fault = plan.value();
    } else if (arg == "--rolling-out" && i + 1 < argc) {
      rolling_out = argv[++i];
    } else if (arg == "--rolling-context" && i + 1 < argc) {
      rolling_context = argv[++i];
    } else if (arg == "--report-every" && i + 1 < argc) {
      if (!int_arg(report_every, 0)) return tools::kExitUsage;
    } else if (arg == "--rolling-topk" && i + 1 < argc) {
      if (!int_arg(rolling_topk, 1)) return tools::kExitUsage;
    } else if (arg == "--rolling-approx" && i + 1 < argc) {
      if (!int_arg(rolling_approx, 1)) return tools::kExitUsage;
    } else if (arg == "--alerts-out" && i + 1 < argc) {
      alerts_out = argv[++i];
    } else if (arg == "--shed-log" && i + 1 < argc) {
      shed_log_out = argv[++i];
    } else if (arg == "--kinds" && i + 1 < argc) {
      kinds.clear();
      std::istringstream list(argv[++i]);
      std::string name;
      while (std::getline(list, name, ',')) {
        const auto kind = kind_from(name);
        if (!kind) {
          std::cerr << "bw-monitor: unknown alert kind: " << name << "\n";
          usage();
          return tools::kExitUsage;
        }
        kinds.insert(*kind);
      }
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return tools::kExitOk;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "bw-monitor: unknown argument: " << arg << "\n";
      usage();
      return tools::kExitUsage;
    }
  }
  const bool live = !live_config.listen_specs.empty() ||
                    !live_config.connect_specs.empty();
  if (live && (replay || !path.empty())) {
    std::cerr << "bw-monitor: live mode (--listen/--connect) takes no CORPUS"
                 " and no --replay\n";
    return tools::kExitUsage;
  }
  if (path.empty() && !live) {
    usage();
    return tools::kExitUsage;
  }
  if (live && !rolling_out.empty() && rolling_context.empty()) {
    std::cerr << "bw-monitor: live rolling reports need --rolling-context"
                 " CORPUS (period + MAC attribution)\n";
    return tools::kExitUsage;
  }
  obs_options.arm();

  try {
    // The corpus a run reads: the one it replays, or a live run's rolling
    // context (period + MAC attribution), if any.
    std::optional<core::Dataset> dataset;
    if (const std::string& corpus = live ? rolling_context : path;
        !corpus.empty()) {
      std::cout << (live ? "Loading rolling context " : "Loading ") << corpus
                << "...\n";
      auto loaded = tools::load_corpus(corpus, strictness.load_options);
      if (!tools::check("bw-monitor", loaded.status())) return tools::kExitData;
      dataset.emplace(std::move(loaded).value());
    }

    // Rolling incremental kernels ride behind the consumer in replay and
    // live modes; in batch mode the same flag emits the one-line batch
    // oracle instead (computed after the monitor run, below).
    const bool rolling_active = !rolling_out.empty() && (replay || live);
    std::optional<stream::incremental::RollingReporter> rolling;
    if (rolling_active) {
      stream::incremental::RollingConfig rc;
      rc.kernels.period = dataset->period();
      rc.kernels.member_asn = [&d = *dataset](net::Mac mac) {
        return d.member_asn(mac);
      };
      if (rolling_approx != 0) {
        rc.kernels.topk_capacity = rolling_approx;
        rc.kernels.topk_exact = false;
      }
      rc.report_every = report_every;
      rc.out_path = rolling_out;
      rc.topk_k = rolling_topk;
      rolling.emplace(std::move(rc));
      if (!tools::check("bw-monitor", rolling->status())) {
        return tools::kExitData;
      }
    }

    // Alert and shed logs stream to their temp files and are committed at
    // the end: a half-written log is worse than none.
    std::optional<util::AtomicFile> alert_log;
    std::optional<util::AtomicFile> shed_log;
    if (!tools::open_output("bw-monitor", alerts_out, alert_log) ||
        !tools::open_output("bw-monitor", shed_log_out, shed_log)) {
      return tools::kExitData;
    }
    std::map<core::AlertKind, std::size_t> counts;
    core::RtbhMonitor monitor({}, [&](const core::Alert& alert) {
      ++counts[alert.kind];
      const std::string line = alert_line(alert);
      if (alert_log) alert_log->stream() << line << '\n';
      if (!quiet && kinds.contains(alert.kind)) {
        std::cout << line << "\n";
      }
    });

    // Sheds can come from any producer/session thread; the log is the one
    // shared sink, so it takes a lock (shedding is the rare path).
    static std::mutex shed_mutex;
    if (shed_log) {
      replay_options.shed_sink = [&](const stream::ShedRecord& rec) {
        const std::lock_guard<std::mutex> lock(shed_mutex);
        shed_log->stream() << rec.to_line() << '\n';
      };
    }
    if (rolling) replay_options.rolling = live_config.rolling = &*rolling;

    // The ring/shed/reorder knobs are one set of flags for replay and live
    // (stream::IngestOptions, the base of ReplayOptions).
    stream::ReplayStats stats;
    stream::transport::LiveStats live_stats;
    if (live) {
      auto ran = stream::transport::run_live(monitor, live_config,
                                             replay_options);
      if (!tools::check("bw-monitor", ran.status())) return tools::kExitData;
      live_stats = std::move(ran).value();
    } else if (replay) {
      if (replay_options.fault.any() && !quiet) {
        std::cout << "stream fault armed: " << replay_options.fault.summary()
                  << "\n";
      }
      stats = stream::replay_streaming(*dataset, monitor, replay_options);
    } else {
      stream::replay_batch(*dataset, monitor);
    }

    if (rolling) {
      // Replay finishes at the corpus period end; a live run at the same
      // instant the monitor was finished (clean close or last event).
      const util::TimeMs finish_at =
          live ? live_stats.finish_time : dataset->period().end;
      if (!tools::check("bw-monitor", rolling->finish(finish_at))) {
        return tools::kExitData;
      }
      if (!quiet) {
        std::cout << "Rolling: " << rolling->snapshots() << " snapshot(s) -> "
                  << rolling_out << "\n";
      }
    } else if (!rolling_out.empty()) {
      // Batch oracle: the batch kernels' figures through the shared
      // renderer, as a single final JSONL line.
      const auto events = core::merge_events(dataset->blackhole_updates(),
                                             dataset->period().end);
      const auto drop = core::compute_drop_rates(*dataset, events);
      const auto ports = core::compute_port_stats(*dataset, events);
      const auto collateral = core::compute_collateral(*dataset, events, ports);
      const std::string line =
          "{\"snapshot\":0,\"final\":true,\"figures\":" +
          stream::incremental::RollingReporter::figures_json(drop, ports,
                                                             collateral) +
          "}\n";
      const util::Status st = util::atomic_write_file(rolling_out, line);
      if (!tools::check("bw-monitor", st)) return tools::kExitData;
      if (!quiet) {
        std::cout << "Rolling: batch oracle -> " << rolling_out << "\n";
      }
    }

    util::TextTable table({"signal", "count"});
    for (const auto& [kind, n] : counts) {
      table.add_row({std::string(core::to_string(kind)),
                     util::fmt_count(static_cast<std::int64_t>(n))});
    }
    std::cout << "\n" << table << "Events observed: " << monitor.total_events()
              << "\n";
    if (replay) {
      std::cout << "Streaming: " << stats.produced() << " produced, "
                << stats.delivered() << " delivered, " << stats.shed.shed_total
                << " shed, " << stats.mux.late_dropped << " late-dropped ("
                << to_string(replay_options.shed_mode) << " mode, "
                << (replay_options.lockstep ? "lockstep" : "threaded")
                << ")\n";
    }
    if (live) {
      std::uint64_t shed_total = 0;
      for (const auto& s : live_stats.sessions) {
        shed_total += s.shed.shed_total;
      }
      std::cout << "Live: " << live_stats.delivered() << " delivered, "
                << shed_total << " shed, " << live_stats.mux.late_dropped
                << " late-dropped over " << live_stats.sessions.size()
                << " session(s)"
                << (live_stats.watchdog_fired ? " [WATCHDOG FIRED]" : "")
                << "\n";
      for (const auto& s : live_stats.sessions) {
        std::cout << "  session: " << s.frames << " frames ("
                  << s.events_bgp << " updates, " << s.events_flow
                  << " flows, " << s.heartbeats << " heartbeats), "
                  << s.connects << " connects, " << s.reconnects
                  << " reconnects, " << s.decode.discarded_bytes
                  << " bytes discarded, "
                  << (s.clean_close
                          ? "clean close"
                          : (s.declared_dead ? "declared dead" : "aborted"))
                  << (s.fatal_error.empty() ? "" : " (" + s.fatal_error + ")")
                  << "\n";
      }
    }

    if (!tools::commit_output("bw-monitor", alert_log) ||
        !tools::commit_output("bw-monitor", shed_log)) {
      return tools::kExitData;
    }

    obs::Manifest manifest;
    manifest.tool = "bw-monitor";
    if (live) {
      std::string endpoints;
      for (const auto& s : live_config.listen_specs) {
        endpoints += (endpoints.empty() ? "listen " : ", listen ") + s;
      }
      for (const auto& s : live_config.connect_specs) {
        endpoints += (endpoints.empty() ? "connect " : ", connect ") + s;
      }
      manifest.corpus = endpoints;
    } else {
      manifest.corpus = path;
    }
    manifest.threads = util::ThreadPool::configured_concurrency();
    manifest.monitor = true;
    if (replay || live) {
      manifest.stream.emplace().mode =
          std::string(to_string(replay_options.shed_mode));
    }
    manifest.transport = live;
    if (rolling_active) {
      manifest.rolling.emplace().report_every_ms =
          static_cast<std::uint64_t>(report_every);
    }
    manifest.populate_from_metrics(obs::Registry::global().snapshot());
    if (!obs_options.emit("bw-monitor", manifest)) return tools::kExitData;

    return tools::kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "bw-monitor: internal error: " << e.what() << "\n";
    return tools::kExitInternal;
  }
}
