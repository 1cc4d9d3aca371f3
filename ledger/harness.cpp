// ledger_harness: one workload of the end-to-end performance ledger.
//
//   --phase setup  generate the workload's corpus from --seed and save it
//                  (and load it, for replay_rolling): what a user does
//                  before the timed path, in a fresh process. Prints its
//                  wall and peak RSS.
//   --phase run    time the user's path (bw-analyze in RAM, bw-analyze
//                  --out-of-core, or bw-monitor lockstep replay with rolling
//                  reports) on that corpus pass after pass for --seconds,
//                  checking every pass's output. With --trace 1 it then
//                  runs a traced pass and per-layer probes, timing the
//                  calls into each layer's public functions from here, and
//                  writes the spans as a Chrome-trace JSON to --trace-out.
//
// Each phase prints one JSON document of raw measurements on its last
// stdout line; ledger/run.py turns them into the benchmark's result line
// (see ledger/README.md).
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/whatif.hpp"
#include "gen/shard.hpp"
#include "obs/metrics.hpp"
#include "store/flow_store.hpp"
#include "stream/incremental/rolling.hpp"
#include "stream/replay.hpp"
#include "util/parallel.hpp"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bw;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 7;
constexpr util::DurationMs kRollingCadence = util::kDay;
constexpr std::size_t kRollingTopK = 10;
constexpr const char* kKernelNames[] = {
    "anomaly",   "classify",     "collateral", "drop_rate",
    "filtering", "port_stats",   "protocol_mix", "summary"};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of the whole process (every thread), in ms.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// --- process memory (/proc/self/status, kB) --------------------------------

double status_mb(const char* key) {
  std::ifstream is("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size()) / 1024.0;
    }
  }
  return -1.0;
}

/// Reset the peak-RSS watermark (VmHWM) to the current RSS, after handing
/// freed heap back to the kernel so the next peak starts from what is live,
/// as in a fresh process. False when the kernel refuses the reset, in which
/// case a later VmHWM still holds every earlier peak.
bool fresh_peak() {
  malloc_trim(0);
  std::ofstream os("/proc/self/clear_refs");
  if (!os) return false;
  os << "5";
  os.flush();
  return static_cast<bool>(os);
}

// --- output digests ----------------------------------------------------------

std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Full-precision number for the JSON documents.
std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// --- spans -------------------------------------------------------------------

/// The benchmark's own spans: one per call into a layer, with its parent.
/// Kept in memory and written out once at the end.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    int parent{-1};
    double start_us{0};
    double end_us{0};
  };

  Tracer() : t0_(Clock::now()) {}

  /// Time `fn` as a span under the innermost open one; returns its ms.
  template <typename F>
  double span(const std::string& layer, const std::string& name, F&& fn) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({layer, name, stack_.empty() ? -1 : stack_.back(),
                      now_us(), 0.0});
    stack_.push_back(id);
    fn();
    stack_.pop_back();
    spans_[id].end_us = now_us();
    return (spans_[id].end_us - spans_[id].start_us) / 1000.0;
  }

  /// Chrome trace document, in the shape bw-* --trace-out writes, with
  /// layer/start/end/parent in each event's args and the run context as
  /// metadata.
  [[nodiscard]] std::string chrome_json(const std::string& context) const {
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << context
       << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
         << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
         << ",\"ts\":" << num(s.start_us) << ",\"dur\":"
         << num(s.end_us - s.start_us) << ",\"args\":{\"id\":" << i
         << ",\"layer\":\"" << s.layer << "\",\"start_us\":" << num(s.start_us)
         << ",\"end_us\":" << num(s.end_us) << ",\"parent\":" << s.parent
         << "}}";
    }
    os << "\n]}\n";
    return os.str();
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{kDefaultSeed};
  double seconds{10};
  bool trace{false};
  std::string work_dir;
  std::string trace_out;
  bool setup{false};  ///< --phase setup: make the corpus and exit
  std::string pin_report;
  std::string pin_alerts;
  std::string pin_rolling;
  long tamper{-1};  ///< negative control: alter this pass's output
  double scale{0};  ///< self-test override of the workload's scale
  std::uint64_t scan_to{0};  ///< --scan-seeds: list corpus sizes and exit
};

struct Workload {
  double scale{0.1};
  bool out_of_core{false};
  bool replay{false};
};

std::optional<Workload> workload_of(const std::string& name) {
  if (name == "analyze_inram") return Workload{0.1, false, false};
  if (name == "analyze_ooc") return Workload{0.05, true, false};
  if (name == "replay_rolling") return Workload{0.1, false, true};
  return std::nullopt;
}

[[noreturn]] void fail(const std::string& what) {
  std::cerr << "ledger_harness: " << what << "\n";
  std::exit(2);
}

template <typename T>
T value_or_fail(util::Result<T> r, const std::string& what) {
  if (!r.ok()) fail(what + ": " + r.status().to_string());
  return std::move(r).value();
}

// --- analysis path (bw-analyze) ---------------------------------------------

struct Analysis {
  std::string markdown;
  std::vector<std::string> degraded;
};

Analysis analyze(const core::Dataset& ds, util::ThreadPool& pool) {
  core::AnalysisConfig cfg;
  cfg.pool = &pool;
  const core::AnalysisReport r = core::run_pipeline(ds, cfg);
  const core::WhatIfReport whatif = core::compute_whatif(ds, r.events, r.pre);
  Analysis a{core::render_markdown(ds, r, &whatif), {}};
  for (const auto& s : r.data_quality.stages) {
    if (s.degraded) a.degraded.push_back(s.name + ": " + s.error);
  }
  return a;
}

/// The pipeline's stages as a serial chain of their public functions in
/// dependency order, each on the pool, each a span. run_pipeline overlaps
/// the independent stages; the chain does not, so its wall is the sum.
std::string stage_chain(const core::Dataset& ds, util::ThreadPool& pool,
                        Tracer& tr, std::vector<std::pair<std::string, double>>&
                                        stage_ms) {
  const core::AnalysisConfig cfg;
  const core::KernelEngine engine = core::KernelEngine::kColumnar;
  core::AnalysisReport r;
  r.data_quality.dataset = ds.quality();
  core::WhatIfReport whatif;
  std::string md;
  auto stage = [&](const char* name, auto&& fn) {
    stage_ms.emplace_back(name, tr.span("core", std::string("stage.") + name,
                                        fn));
  };
  stage("summary", [&] { r.summary = ds.summary(&pool, engine); });
  stage("event_merge", [&] {
    r.events = core::merge_events(ds.blackhole_updates(), ds.period().end,
                                  cfg.merge_delta);
  });
  stage("pre_rtbh", [&] {
    r.pre = core::compute_pre_rtbh(ds, r.events, cfg.pre, &pool, nullptr,
                                   engine);
  });
  stage("drop_rate", [&] {
    r.drop = core::compute_drop_rates(ds, r.events, cfg.drop, &pool, nullptr,
                                      engine);
  });
  stage("protocol_mix", [&] {
    r.protocols = core::compute_protocol_mix(ds, r.events, r.pre,
                                             cfg.protocols, engine);
  });
  stage("filtering", [&] {
    r.filtering = core::compute_filtering(ds, r.events, r.pre, 0.95, engine);
  });
  stage("participation", [&] {
    r.participation = core::compute_participation(ds, r.events, r.pre);
  });
  stage("port_stats", [&] {
    r.ports = core::compute_port_stats(ds, r.events, cfg.ports, &pool,
                                       nullptr, engine);
  });
  stage("radviz", [&] {
    r.radviz = core::radviz_projection(r.ports, cfg.ports.min_days);
  });
  stage("collateral", [&] {
    r.collateral = core::compute_collateral(ds, r.events, r.ports,
                                            cfg.sampling_rate, &pool, nullptr,
                                            engine);
  });
  stage("classify", [&] {
    r.classes = core::classify_events(ds, r.events, r.pre, cfg.classify,
                                      engine);
  });
  stage("whatif", [&] { whatif = core::compute_whatif(ds, r.events, r.pre); });
  // The stage table run_pipeline would record: every stage, none degraded.
  for (const char* name :
       {"summary", "event_merge", "pre_rtbh", "drop_rate", "protocol_mix",
        "filtering", "participation", "victims", "classify"}) {
    r.data_quality.stages.push_back({name, false, false, ""});
  }
  stage("render", [&] { md = core::render_markdown(ds, r, &whatif); });
  return md;
}

// --- monitor path (bw-monitor --replay --lockstep --rolling-out) ------------

std::string alert_line(const core::Alert& a) {
  return "[" + util::format_time(a.time) + "] " +
         std::string(core::to_string(a.kind)) + ": " + a.message + "\n";
}

stream::incremental::RollingConfig rolling_config(const core::Dataset& ds) {
  stream::incremental::RollingConfig rc;
  rc.kernels.period = ds.period();
  rc.kernels.member_asn = [&ds](net::Mac mac) { return ds.member_asn(mac); };
  rc.report_every = kRollingCadence;
  rc.topk_k = kRollingTopK;
  return rc;
}

/// Visit the corpus in the order the lockstep replay delivers it, (time,
/// kind, seq), each event built with StreamEvent::from.
template <typename Fn>
void for_each_delivery(const core::Dataset& ds, Fn&& fn) {
  const auto& updates = ds.blackhole_updates();
  const auto& flows = ds.flows();
  std::size_t ui = 0, fi = 0;
  std::uint64_t useq = 0, fseq = 0;
  while (ui < updates.size() || fi < flows.size()) {
    const bool take_update =
        fi >= flows.size() ||
        (ui < updates.size() && updates[ui].time <= flows[fi].time);
    fn(take_update ? stream::StreamEvent::from(updates[ui++], useq++)
                   : stream::StreamEvent::from(flows[fi++], fseq++));
  }
}

struct ReplayOutput {
  std::string alerts;
  std::string final_line;
  std::uint64_t shed{0};
  std::uint64_t late_dropped{0};
};

ReplayOutput replay_rolling(const core::Dataset& ds) {
  ReplayOutput out;
  core::RtbhMonitor monitor(
      {}, [&](const core::Alert& a) { out.alerts += alert_line(a); });
  stream::incremental::RollingReporter rolling(rolling_config(ds));
  stream::ReplayOptions opt;
  opt.lockstep = true;
  opt.rolling = &rolling;
  const stream::ReplayStats stats =
      stream::replay_streaming(ds, monitor, opt);
  if (const util::Status st = rolling.finish(ds.period().end); !st.ok()) {
    fail("rolling finish: " + st.to_string());
  }
  out.final_line = rolling.lines().back();
  out.shed = stats.shed.shed_total;
  out.late_dropped = stats.mux.late_dropped;
  return out;
}

std::string figures_of(const std::string& line) {
  const std::string key = "\"figures\":";
  const std::size_t at = line.find(key);
  if (at == std::string::npos || line.empty() || line.back() != '}') return {};
  return line.substr(at + key.size(),
                     line.size() - 1 - at - key.size());
}

/// Reference outputs for the replay checks: the batch monitor's alerts and
/// the batch kernels' figures through the shared renderer.
struct ReplayReference {
  std::string alerts_digest;
  std::string figures;
};

ReplayReference replay_reference(const core::Dataset& ds,
                                 util::ThreadPool& pool) {
  std::string alerts;
  core::RtbhMonitor monitor(
      {}, [&](const core::Alert& a) { alerts += alert_line(a); });
  stream::replay_batch(ds, monitor);
  const auto events =
      core::merge_events(ds.blackhole_updates(), ds.period().end);
  const core::DropRateConfig drop_cfg;
  const core::PortStatsConfig port_cfg;
  const auto drop = core::compute_drop_rates(ds, events, drop_cfg, &pool);
  const auto ports = core::compute_port_stats(ds, events, port_cfg, &pool);
  const auto collateral =
      core::compute_collateral(ds, events, ports, 10000, &pool);
  return {digest(alerts), stream::incremental::RollingReporter::figures_json(
                              drop, ports, collateral)};
}

/// Negative control: the same output with its first line altered.
void alter_first_line(std::string& text) {
  const std::size_t eol = text.find('\n');
  text.insert(eol == std::string::npos ? text.size() : eol, " (altered)");
}

// --- the workload ------------------------------------------------------------

struct PassResult {
  double wall_s{0};
  double cpu_s{0};
  double peak_rss_mb{-1};  ///< VmHWM over the pass; -1 when not measurable
  bool ok{true};
  bool traced{false};
  std::string reason;
};

class Ledger {
 public:
  Ledger(Options opt, Workload wl, util::ThreadPool& pool)
      : opt_(std::move(opt)), wl_(wl), pool_(pool) {
    cfg_.scale = wl_.scale;
    cfg_.seed = opt_.seed;
    corpus_ = opt_.work_dir + "/corpus.bwds";
  }

  /// Everything before the first timed pass, in a fresh process as a user
  /// runs it: generation + try_save, plus the one-time load for
  /// replay_rolling. Prints its wall and peak RSS as one JSON line.
  void setup() const {
    const Clock::time_point t0 = Clock::now();
    {
      const core::ScenarioRun run =
          core::run_scenario(cfg_, std::string{}, &pool_);
      if (const util::Status st = run.dataset.try_save(corpus_); !st.ok()) {
        fail("try_save: " + st.to_string());
      }
    }
    if (wl_.replay) {
      (void)value_or_fail(core::Dataset::try_load(corpus_), "try_load");
    }
    const double wall_s = ms_since(t0) / 1000.0;
    std::cout << "{\"setup_s\":" << num(wall_s)
              << ",\"setup_rss_mb\":" << num(status_mb("VmHWM")) << "}"
              << std::endl;
  }

  /// Load what the passes need from the set-up's corpus, and compute the
  /// check references once. None of it is timed: it is the benchmark's
  /// overhead, not the user's. Both analyze workloads compare against an
  /// in-RAM analysis of the corpus file.
  void prepare() {
    file_bytes_ = std::filesystem::file_size(corpus_);
    const auto store = value_or_fail(store::FlowStore::open(corpus_), "open");
    chunks_ = store->chunk_count();
    src_chunks_ = store->src_chunk_count();
    if (wl_.replay) {
      dataset_.emplace(
          value_or_fail(core::Dataset::try_load(corpus_), "try_load"));
      flows_ = dataset_->flows().size();
      updates_ = dataset_->control().size();
      replay_ref_ = replay_reference(*dataset_, pool_);
      return;
    }
    const auto ds = value_or_fail(core::Dataset::try_load(corpus_), "load");
    flows_ = ds.flows().size();
    updates_ = ds.control().size();
    const Clock::time_point t0 = Clock::now();
    const double c0 = process_cpu_ms();
    const Analysis a = analyze(ds, pool_);
    inram_ms_ = ms_since(t0);
    inram_cpu_ms_ = process_cpu_ms() - c0;
    if (!a.degraded.empty()) fail("in-RAM reference degraded");
    expect_report_ = digest(a.markdown);
  }

  void passes() {
    const Clock::time_point t0 = Clock::now();
    do {
      const bool reset = fresh_peak();
      const Clock::time_point p0 = Clock::now();
      const double c0 = process_cpu_ms();
      PassResult r = wl_.replay ? replay_pass() : analyze_pass();
      r.wall_s = ms_since(p0) / 1000.0;
      r.cpu_s = (process_cpu_ms() - c0) / 1000.0;
      if (reset) r.peak_rss_mb = status_mb("VmHWM");
      passes_.push_back(r);
    } while (ms_since(t0) < opt_.seconds * 1000.0);
  }

  void traced();

  [[nodiscard]] std::string context_json() const {
    std::ostringstream os;
    os << "{\"workload\":\"" << opt_.workload << "\",\"seed\":" << opt_.seed
       << ",\"scale\":" << wl_.scale
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"pool_concurrency\":" << pool_.concurrency()
       << ",\"build_type\":\"" << LEDGER_BUILD_TYPE << "\""
       << ",\"flows\":" << flows_ << ",\"updates\":" << updates_
       << ",\"store_chunks\":" << chunks_
       << ",\"store_src_chunks\":" << src_chunks_
       << ",\"file_bytes\":" << file_bytes_
       << ",\"seconds\":" << opt_.seconds << "}";
    return os.str();
  }

  void print() const {
    std::ostringstream os;
    os << "{\"context\":" << context_json() << ",\"passes\":[";
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      const PassResult& p = passes_[i];
      os << (i ? "," : "") << "{\"wall_s\":" << num(p.wall_s)
         << ",\"cpu_s\":" << num(p.cpu_s) << ",\"peak_rss_mb\":"
         << (p.peak_rss_mb < 0 ? "null" : num(p.peak_rss_mb))
         << ",\"ok\":" << (p.ok ? "true" : "false")
         << ",\"traced\":" << (p.traced ? "true" : "false") << ",\"reason\":\""
         << json_escape(p.reason) << "\"}";
    }
    os << "],\"digests\":{\"report\":\"" << seen_report_ << "\",\"alerts\":\""
       << seen_alerts_ << "\",\"rolling\":\"" << seen_rolling_ << "\"}";
    os << ",\"layers\":{";
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      os << (i ? "," : "") << "\"" << layers_[i].first
         << "\":" << num(layers_[i].second);
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

 private:
  bool tampered_now() const {
    return opt_.tamper >= 0 &&
           static_cast<std::size_t>(opt_.tamper) == passes_.size();
  }

  PassResult check_report(std::string markdown,
                          const std::vector<std::string>& degraded) {
    PassResult r;
    if (tampered_now()) alter_first_line(markdown);
    const std::string d = digest(markdown);
    if (!degraded.empty()) {
      r.ok = false;
      r.reason = "degraded stage " + degraded.front();
    } else if (!opt_.pin_report.empty() && d != opt_.pin_report) {
      r.ok = false;
      r.reason = "report digest " + d + " != pinned " + opt_.pin_report;
    } else if (d != expect_report_) {
      r.ok = false;
      r.reason = "report digest " + d + " != reference " + expect_report_;
    }
    if (seen_report_.empty()) seen_report_ = d;
    return r;
  }

  PassResult analyze_pass() {
    if (wl_.out_of_core) {
      const auto ds = value_or_fail(core::Dataset::try_open_chunked(corpus_),
                                    "try_open_chunked");
      Analysis a = analyze(ds, pool_);
      return check_report(std::move(a.markdown), a.degraded);
    }
    const auto ds = value_or_fail(core::Dataset::try_load(corpus_), "try_load");
    Analysis a = analyze(ds, pool_);
    return check_report(std::move(a.markdown), a.degraded);
  }

  PassResult check_replay(ReplayOutput out) {
    PassResult r;
    if (tampered_now()) alter_first_line(out.alerts);
    const std::string alerts = digest(out.alerts);
    const std::string rolling = digest(out.final_line);
    auto bad = [&](std::string why) {
      if (r.ok) r.reason = std::move(why);
      r.ok = false;
    };
    if (alerts != replay_ref_.alerts_digest) {
      bad("alerts digest " + alerts + " != batch " + replay_ref_.alerts_digest);
    }
    if (figures_of(out.final_line) != replay_ref_.figures) {
      bad("final rolling figures differ from the batch reports");
    }
    if (out.shed != 0 || out.late_dropped != 0) {
      bad("shed " + std::to_string(out.shed) + ", late-dropped " +
          std::to_string(out.late_dropped));
    }
    if (!opt_.pin_alerts.empty() && alerts != opt_.pin_alerts) {
      bad("alerts digest " + alerts + " != pinned " + opt_.pin_alerts);
    }
    if (!opt_.pin_rolling.empty() && rolling != opt_.pin_rolling) {
      bad("rolling digest " + rolling + " != pinned " + opt_.pin_rolling);
    }
    if (seen_alerts_.empty()) {
      seen_alerts_ = alerts;
      seen_rolling_ = rolling;
    }
    return r;
  }

  PassResult replay_pass() { return check_replay(replay_rolling(*dataset_)); }

  void layer(const std::string& name, double value) {
    layers_.emplace_back(name, value);
  }

  void probe_gen(Tracer& tr);
  void probe_store(Tracer& tr);
  void probe_load(Tracer& tr);
  void probe_stream(Tracer& tr, const core::Dataset& ds);
  void traced_pass(Tracer& tr);
  void stage_layers(
      const std::vector<std::pair<std::string, double>>& stage_ms,
      const obs::MetricsSnapshot& before);

  Options opt_;
  Workload wl_;
  util::ThreadPool& pool_;
  gen::ScenarioConfig cfg_;
  std::string corpus_;
  std::optional<core::Dataset> dataset_;  ///< replay_rolling only
  std::size_t flows_{0};
  std::size_t updates_{0};
  std::size_t chunks_{0};
  std::size_t src_chunks_{0};
  std::uintmax_t file_bytes_{0};
  double inram_ms_{0};
  double inram_cpu_ms_{0};
  std::vector<PassResult> passes_;
  std::string expect_report_;
  ReplayReference replay_ref_;
  std::string seen_report_;
  std::string seen_alerts_;
  std::string seen_rolling_;
  std::vector<std::pair<std::string, double>> layers_;
};

/// gen: run_scenario's steps, one span each, without the corpus cache.
void Ledger::probe_gen(Tracer& tr) {
  std::optional<core::Dataset> ds;
  tr.span("probe", "gen", [&] {
    gen::Scenario scenario(cfg_);
    ixp::Platform platform(gen::Scenario::platform_config(cfg_));
    std::vector<gen::EmissionUnit> plan;
    std::vector<gen::ShardRange> shards;
    std::vector<ixp::Platform::SliceResult> slices;
    ixp::RunResult result;
    layer("gen.prepare_ms", tr.span("gen", "install+prepare", [&] {
      scenario.install(platform);
      platform.prepare(scenario.control());
    }));
    layer("gen.plan_ms", tr.span("gen", "plan", [&] {
      plan = scenario.emission_plan();
      shards = gen::plan_shards(plan,
                                core::generation_shards(pool_.concurrency()));
    }));
    layer("gen.slices_ms", tr.span("gen", "run_slices", [&] {
      slices = util::parallel_map(pool_, shards.size(), [&](std::size_t i) {
        std::vector<gen::EmissionUnit> units(
            plan.begin() + static_cast<std::ptrdiff_t>(shards[i].begin),
            plan.begin() + static_cast<std::ptrdiff_t>(shards[i].end));
        return platform.run_slice(scenario.traffic_source(std::move(units)));
      });
    }));
    layer("gen.merge_ms", tr.span("gen", "finish", [&] {
      result = platform.finish(std::move(slices));
    }));
    layer("gen.dataset_ms", tr.span("gen", "from_run", [&] {
      ds.emplace(core::Dataset::from_run(std::move(result), platform));
    }));
  });
  layer("gen.flows", static_cast<double>(ds->flows().size()));
  if (ds->flows().size() != flows_) fail("traced generation differs");
  const std::string copy = opt_.work_dir + "/traced.bwds";
  layer("store.save_ms", tr.span("store", "try_save", [&] {
    if (const util::Status st = ds->try_save(copy); !st.ok()) {
      fail("try_save: " + st.to_string());
    }
  }));
  layer("store.file_bytes",
        static_cast<double>(std::filesystem::file_size(copy)));
  std::filesystem::remove(copy);
}

/// store (read): metadata open and one cold decode of every chunk.
void Ledger::probe_store(Tracer& tr) {
  std::shared_ptr<const store::FlowStore> st;
  layer("store.open_ms", tr.span("store", "FlowStore::open", [&] {
    st = value_or_fail(store::FlowStore::open(corpus_), "open");
  }));
  layer("store.chunks", static_cast<double>(st->chunk_count()));
  double dst_ms = 0;
  layer("store.decode_all_ms", tr.span("store", "decode_all", [&] {
    for (const bool src : {false, true}) {
      const std::size_t n = src ? st->src_chunk_count() : st->chunk_count();
      const double ms = tr.span("store", src ? "try_chunk.src" : "try_chunk.dst", [&] {
        for (std::size_t k = 0; k < n; ++k) {
          std::shared_ptr<const store::ChunkData> out;
          if (const util::Status s = st->try_chunk(k, src, out); !s.ok()) {
            fail("try_chunk: " + s.to_string());
          }
        }
      });
      if (!src) dst_ms = ms;
    }
  }));
  layer("store.decode_chunk_ms",
        dst_ms / static_cast<double>(st->chunk_count()));
  if (!wl_.out_of_core) {
    // The in-RAM workloads read each chunk once, as this probe does; their
    // decode counters are the control for analyze_ooc's, which come from
    // its out-of-core pass.
    layer("store.decodes", static_cast<double>(st->chunks_decoded()));
    layer("store.pruned", static_cast<double>(st->chunks_pruned()));
  }
}

/// core (load): materializing load, its resident growth, and chunked open.
void Ledger::probe_load(Tracer& tr) {
  malloc_trim(0);
  const double rss0 = status_mb("VmRSS");
  std::optional<core::Dataset> ds;
  layer("core.load_ms", tr.span("core", "try_load", [&] {
    ds.emplace(value_or_fail(core::Dataset::try_load(corpus_), "try_load"));
  }));
  const double grown_mb = status_mb("VmRSS") - rss0;
  layer("core.resident_bytes_per_flow",
        grown_mb * 1024.0 * 1024.0 / static_cast<double>(flows_));
  ds.reset();
  layer("core.open_chunked_ms", tr.span("core", "try_open_chunked", [&] {
    ds.emplace(value_or_fail(core::Dataset::try_open_chunked(corpus_),
                             "try_open_chunked"));
  }));
}

/// stream: the monitor alone, the lockstep mux without a reporter, and the
/// rolling reporter driven in delivery order, split into calls that emit
/// a snapshot line and calls that do not.
void Ledger::probe_stream(Tracer& tr, const core::Dataset& ds) {
  tr.span("probe", "stream", [&] {
    {
      core::RtbhMonitor monitor({}, [](const core::Alert&) {});
      layer("stream.batch_replay_ms", tr.span("stream", "replay_batch", [&] {
        stream::replay_batch(ds, monitor);
      }));
    }
    stream::ReplayStats stats;
    {
      core::RtbhMonitor monitor({}, [](const core::Alert&) {});
      stream::ReplayOptions opt;
      opt.lockstep = true;
      layer("stream.replay_ms", tr.span("stream", "replay_streaming", [&] {
        stats = stream::replay_streaming(ds, monitor, opt);
      }));
    }
    layer("stream.delivered", static_cast<double>(stats.delivered()));
    layer("stream.shed", static_cast<double>(stats.shed.shed_total));
    layer("stream.late_dropped", static_cast<double>(stats.mux.late_dropped));

    stream::incremental::RollingReporter rolling(rolling_config(ds));
    double quiet_ms = 0;
    std::vector<double> snapshot_ms;
    tr.span("stream", "rolling.on_event", [&] {
      bool first = true;
      util::TimeMs next_emit = 0;
      Clock::time_point block = Clock::now();
      for_each_delivery(ds, [&](const stream::StreamEvent& ev) {
        if (first) {
          first = false;
          next_emit = ev.time + kRollingCadence;
        } else if (ev.time >= next_emit) {
          quiet_ms += ms_since(block);
          const std::size_t lines = rolling.snapshots();
          const Clock::time_point t0 = Clock::now();
          rolling.on_event(ev);
          snapshot_ms.push_back(ms_since(t0));
          if (rolling.snapshots() == lines) fail("snapshot boundary missed");
          while (ev.time >= next_emit) next_emit += kRollingCadence;
          block = Clock::now();
          return;
        }
        rolling.on_event(ev);
      });
      quiet_ms += ms_since(block);
    });
    layer("stream.finish_ms", tr.span("stream", "rolling.finish", [&] {
      if (const util::Status st = rolling.finish(ds.period().end); !st.ok()) {
        fail("rolling finish: " + st.to_string());
      }
    }));
    if (snapshot_ms.empty()) fail("no rolling snapshot emitted");
    std::sort(snapshot_ms.begin(), snapshot_ms.end());
    auto pct = [&](double p) {  // nearest rank, as ledger_stats.percentile
      const double rank = std::ceil(p * static_cast<double>(snapshot_ms.size()));
      return snapshot_ms[static_cast<std::size_t>(std::max(rank, 1.0)) - 1];
    };
    double bytes = 0;
    for (const std::string& line : rolling.lines()) {
      bytes += static_cast<double>(line.size());
    }
    layer("stream.rolling_ms", quiet_ms);
    layer("stream.snapshot_p50_ms", pct(0.5));
    layer("stream.snapshot_p90_ms", pct(0.9));
    layer("stream.snapshot_bytes",
          bytes / static_cast<double>(rolling.lines().size()));
  });
}

/// Per-stage times of a stage chain and the kernel row-scan counters it
/// advanced since `before`.
void Ledger::stage_layers(
    const std::vector<std::pair<std::string, double>>& stage_ms,
    const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  for (const auto& [name, ms] : stage_ms) {
    layer("core.stage." + name + "_ms", ms);
  }
  for (const char* k : kKernelNames) {
    const std::string c = std::string("kernel.") + k + ".scan_rows";
    layer(c, static_cast<double>(after.counter(c) - before.counter(c)));
  }
}

/// One pass of the workload's path as a chain of layer calls, each a span.
void Ledger::traced_pass(Tracer& tr) {
  std::vector<std::pair<std::string, double>> stage_ms;
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  double sum_ms = 0;
  const double wall = tr.span("ledger", "pass", [&] {
    if (wl_.replay) {
      // The rolling pass, decomposed: replay into the monitor, then the
      // reporter over the same delivery order, then its final snapshot.
      ReplayOutput out;
      core::RtbhMonitor monitor(
          {}, [&](const core::Alert& a) { out.alerts += alert_line(a); });
      stream::ReplayStats stats;
      sum_ms += tr.span("stream", "replay_streaming", [&] {
        stream::ReplayOptions opt;
        opt.lockstep = true;
        stats = stream::replay_streaming(*dataset_, monitor, opt);
      });
      stream::incremental::RollingReporter rolling(rolling_config(*dataset_));
      sum_ms += tr.span("stream", "rolling.on_event", [&] {
        for_each_delivery(*dataset_, [&](const stream::StreamEvent& ev) {
          rolling.on_event(ev);
        });
      });
      sum_ms += tr.span("stream", "rolling.finish", [&] {
        if (const util::Status st = rolling.finish(dataset_->period().end);
            !st.ok()) {
          fail("rolling finish: " + st.to_string());
        }
      });
      out.final_line = rolling.lines().back();
      out.shed = stats.shed.shed_total;
      out.late_dropped = stats.mux.late_dropped;
      passes_.push_back(check_replay(std::move(out)));
      return;
    }
    std::optional<core::Dataset> ds;
    if (wl_.out_of_core) {
      sum_ms += tr.span("core", "try_open_chunked", [&] {
        ds.emplace(value_or_fail(core::Dataset::try_open_chunked(corpus_),
                                 "try_open_chunked"));
      });
    } else {
      sum_ms += tr.span("core", "try_load", [&] {
        ds.emplace(value_or_fail(core::Dataset::try_load(corpus_), "try_load"));
      });
    }
    std::string md = stage_chain(*ds, pool_, tr, stage_ms);
    for (const auto& [name, ms] : stage_ms) sum_ms += ms;
    passes_.push_back(check_report(std::move(md), {}));
    if (wl_.out_of_core) {
      const store::FlowStore& st = *ds->store();
      layer("store.decodes", static_cast<double>(st.chunks_decoded()));
      layer("store.pruned", static_cast<double>(st.chunks_pruned()));
    }
  });
  passes_.back().wall_s = wall / 1000.0;
  passes_.back().traced = true;
  layer("trace.pass_ms", wall);
  layer("trace.unaccounted_ms", wall - sum_ms);
  if (!stage_ms.empty()) stage_layers(stage_ms, before);
}

void Ledger::traced() {
  Tracer tr;
  tr.span("ledger", "traced_run", [&] {
    probe_gen(tr);
    probe_store(tr);
    probe_load(tr);
    traced_pass(tr);
    // Layers the workload's own pass does not cover are probed on the
    // same corpus so every run reports every layer.
    if (wl_.replay) {
      std::vector<std::pair<std::string, double>> stage_ms;
      const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
      tr.span("probe", "core_stages", [&] {
        (void)stage_chain(*dataset_, pool_, tr, stage_ms);
      });
      stage_layers(stage_ms, before);
      probe_stream(tr, *dataset_);
    } else {
      const auto ds =
          value_or_fail(core::Dataset::try_load(corpus_), "try_load");
      probe_stream(tr, ds);
    }
  });
  if (wl_.out_of_core) {
    layer("trace.inram_pass_ms", inram_ms_);
    layer("trace.inram_cpu_ms", inram_cpu_ms_);
  }
  if (!opt_.trace_out.empty()) {
    std::ofstream os(opt_.trace_out);
    os << tr.chrome_json(context_json());
    if (!os) fail("cannot write " + opt_.trace_out);
  }
}

/// Corpus size of every scenario seed in [from, to] at `scale`, one line
/// each: seed, flows, dst chunks. This is how ledger/seeds.json was chosen.
void scan_seeds(double scale, std::uint64_t from, std::uint64_t to,
                util::ThreadPool& pool) {
  const std::size_t rows = store::chunk_rows();
  for (std::uint64_t seed = from; seed <= to; ++seed) {
    gen::ScenarioConfig cfg;
    cfg.scale = scale;
    cfg.seed = seed;
    const std::size_t flows =
        core::run_scenario(cfg, std::string{}, &pool).dataset.flows().size();
    std::cout << seed << " " << flows << " " << (flows + rows - 1) / rows
              << std::endl;
  }
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) fail("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(val().c_str());
    else if (a == "--trace") o.trace = val() == "1";
    else if (a == "--work-dir") o.work_dir = val();
    else if (a == "--trace-out") o.trace_out = val();
    else if (a == "--phase") {
      const std::string phase = val();
      if (phase != "setup" && phase != "run") fail("--phase is setup or run");
      o.setup = phase == "setup";
    }
    else if (a == "--pin-report") o.pin_report = val();
    else if (a == "--pin-alerts") o.pin_alerts = val();
    else if (a == "--pin-rolling") o.pin_rolling = val();
    else if (a == "--tamper") o.tamper = std::atol(val().c_str());
    else if (a == "--scale") o.scale = std::atof(val().c_str());
    else if (a == "--scan-seeds") o.scan_to = std::strtoull(val().c_str(), nullptr, 10);
    else fail("unknown argument " + a);
  }
  if (o.work_dir.empty() && o.scan_to == 0) fail("--work-dir is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  auto wl = workload_of(opt.workload);
  if (!wl) fail("unknown workload '" + opt.workload + "'");
  if (opt.scale > 0) wl->scale = opt.scale;
  // One pool of min(nproc, 4) threads (3 workers + the caller). The library
  // paths that use the process-wide pool get the same size, whatever the
  // caller's $BW_THREADS says.
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  setenv("BW_THREADS", std::to_string(threads).c_str(), 1);
  util::ThreadPool pool(threads - 1);
  if (opt.scan_to != 0) {
    scan_seeds(wl->scale, opt.seed, opt.scan_to, pool);
    return 0;
  }
  std::filesystem::create_directories(opt.work_dir);

  Ledger ledger(opt, *wl, pool);
  if (opt.setup) {
    ledger.setup();
    return 0;
  }
  ledger.prepare();
  ledger.passes();
  if (opt.trace) ledger.traced();
  ledger.print();
  return 0;
}
