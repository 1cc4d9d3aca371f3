#include "core/pipeline.hpp"

#include <array>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "gen/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/parallel.hpp"

namespace bw::core {

namespace {

/// Fixed stage order: the report's stage table (and therefore the rendered
/// document) is identical at every thread count.
constexpr const char* kStageNames[] = {
    "summary",   "event_merge",   "pre_rtbh", "drop_rate", "protocol_mix",
    "filtering", "participation", "victims",  "classify",
};
constexpr std::size_t kStageCount = std::size(kStageNames);

/// Per-stage metric handles, registered once under the documented names
/// (pipeline.stage.<name>.{runs,wall_us,cpu_us,degraded,timed_out}) and
/// cached so stage guards never take the registry mutex.
struct StageMetrics {
  obs::Counter* runs;
  obs::Counter* wall_us;
  obs::Counter* cpu_us;
  obs::Counter* degraded;
  obs::Counter* timed_out;
};

const std::array<StageMetrics, kStageCount>& stage_metrics() {
  static const auto* metrics = [] {
    auto* arr = new std::array<StageMetrics, kStageCount>();
    auto& reg = obs::Registry::global();
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const std::string base = std::string("pipeline.stage.") + kStageNames[i];
      (*arr)[i] = {&reg.counter(base + ".runs"),
                   &reg.counter(base + ".wall_us"),
                   &reg.counter(base + ".cpu_us"),
                   &reg.counter(base + ".degraded"),
                   &reg.counter(base + ".timed_out")};
    }
    return arr;
  }();
  return *metrics;
}

obs::Counter& cache_counter(const char* what) {
  auto& reg = obs::Registry::global();
  return reg.counter(std::string("scenario.cache.") + what);
}

}  // namespace

AnalysisReport run_pipeline(const Dataset& dataset,
                            const AnalysisConfig& config) {
  static obs::Counter& pipeline_runs =
      obs::Registry::global().counter("pipeline.runs");
  pipeline_runs.add();
  const obs::TraceSpan pipeline_span("run_pipeline", "pipeline");

  util::ThreadPool& pool = util::pool_or_global(config.pool);
  AnalysisReport report;
  report.data_quality.dataset = dataset.quality();

  // Per-stage isolation: each stage body runs inside a guard that converts
  // an escaped exception into a degraded StageStatus. The stage's report
  // section stays default-constructed; every other stage still runs. Each
  // guard writes only its own pre-allocated slot, so the guards are safe to
  // run from concurrent stage-graph tasks.
  // Supervision: each stage gets a fresh deadline at entry (stages run
  // concurrently, so a shared deadline would charge one stage for another's
  // runtime). The heavy kernels poll it per parallel_for chunk; expiry
  // surfaces as DeadlineExceeded and lands in the timed_out branch below.
  std::array<StageStatus, kStageCount> stages;
  for (std::size_t i = 0; i < kStageCount; ++i) stages[i].name = kStageNames[i];
  auto guarded = [&](std::size_t slot, auto&& body) {
    StageStatus& status = stages[slot];
    const StageMetrics& metrics = stage_metrics()[slot];
    const obs::TraceSpan span(std::string("stage.") + status.name, "pipeline");
    const obs::StopWatch wall;
    const obs::ThreadCpuTimer cpu;
    metrics.runs->add();
    const util::Deadline deadline = config.stage_timeout > 0
                                        ? util::Deadline::after(config.stage_timeout)
                                        : util::Deadline::never();
    try {
      for (const auto& fault : config.inject_stage_faults) {
        if (fault == status.name) {
          throw std::runtime_error("injected stage fault");
        }
      }
      for (const auto& hang : config.inject_stage_hangs) {
        if (hang != status.name) continue;
        if (deadline.never_expires()) {
          throw std::runtime_error("injected hang without a stage timeout");
        }
        // A wedged stage: burn wall-clock until the watchdog fires. The
        // poll-sleep loop models any stage whose checkpoints keep firing
        // but whose work never finishes.
        while (true) {
          deadline.check(status.name);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      body(deadline);
    } catch (const util::DeadlineExceeded& e) {
      status.degraded = true;
      status.timed_out = true;
      status.error = e.what();
    } catch (const std::exception& e) {
      status.degraded = true;
      status.error = e.what();
    } catch (...) {
      status.degraded = true;
      status.error = "unknown failure";
    }
    metrics.wall_us->add(wall.elapsed_us());
    metrics.cpu_us->add(cpu.elapsed_us());
    if (status.degraded) metrics.degraded->add();
    if (status.timed_out) metrics.timed_out->add();
  };

  // Serial prologue: event merging is cheap and everything depends on it;
  // the pre-RTBH scan (the heaviest kernel) fans events out internally.
  auto summary_done = pool.submit([&] {
    guarded(0, [&](const util::Deadline&) {
      report.summary = dataset.summary(&pool);
    });
  });
  guarded(1, [&](const util::Deadline&) {
    report.events = merge_events(dataset.blackhole_updates(),
                                 dataset.period().end, config.merge_delta);
  });
  const std::vector<RtbhEvent>& events = report.events;
  guarded(2, [&](const util::Deadline& dl) {
    report.pre = compute_pre_rtbh(dataset, events, config.pre, &pool, &dl);
  });

  // Stage graph: with events and the pre-RTBH report fixed, the remaining
  // stages only read shared immutable state and write disjoint report
  // fields, so they run concurrently. The victims chain (port stats ->
  // RadViz -> collateral) keeps its internal data dependency. Each stage
  // computes a thread-count-independent result, so the stage graph changes
  // wall-clock time only, never bytes. In serial mode (BW_THREADS=1)
  // submit() runs inline, reproducing the sequential stage order exactly.
  auto drop_done = pool.submit([&] {
    guarded(3, [&](const util::Deadline& dl) {
      report.drop =
          compute_drop_rates(dataset, events, config.drop, &pool, &dl);
    });
  });
  auto protocols_done = pool.submit([&] {
    guarded(4, [&](const util::Deadline&) {
      report.protocols = compute_protocol_mix(dataset, events, report.pre,
                                              config.protocols);
    });
  });
  auto filtering_done = pool.submit([&] {
    guarded(5, [&](const util::Deadline&) {
      report.filtering = compute_filtering(dataset, events, report.pre, 0.95);
    });
  });
  auto participation_done = pool.submit([&] {
    guarded(6, [&](const util::Deadline&) {
      report.participation = compute_participation(dataset, events, report.pre);
    });
  });
  auto victims_done = pool.submit([&] {
    guarded(7, [&](const util::Deadline& dl) {
      report.ports =
          compute_port_stats(dataset, events, config.ports, &pool, &dl);
      report.radviz = radviz_projection(report.ports, config.ports.min_days);
      report.collateral =
          compute_collateral(dataset, events, report.ports,
                             config.sampling_rate, &pool, &dl);
    });
  });
  guarded(8, [&](const util::Deadline&) {
    report.classes = classify_events(dataset, events, report.pre,
                                     config.classify);
  });

  summary_done.get();
  drop_done.get();
  protocols_done.get();
  filtering_done.get();
  participation_done.get();
  victims_done.get();

  report.data_quality.stages.assign(stages.begin(), stages.end());
  return report;
}

std::string scenario_cache_name(const gen::ScenarioConfig& cfg) {
  std::ostringstream os;
  // v8: the cache file moved to the chunked .bwds v3 column-store layout.
  os << "v8|" << cfg.sampling_rate << '|' << cfg.scale << '|' << cfg.seed
     << '|' << cfg.period.begin << '|'
     << cfg.period.end << '|' << cfg.members << '|' << cfg.blackholer_members
     << '|' << cfg.victim_origin_as << '|' << cfg.amplifier_origins << '|'
     << cfg.amplifiers << '|' << cfg.server_hosts << '|' << cfg.client_hosts
     << '|' << cfg.idle_victims << '|' << cfg.rtbh_events << '|'
     << cfg.attack_fraction << '|' << cfg.steady_fraction << '|'
     << cfg.zombies << '|' << cfg.squatting_prefixes << '|'
     << cfg.content_blocking << '|' << cfg.attack_packets_log_mean << '|'
     << cfg.server_daily_packets << '|' << cfg.client_daily_packets;
  const std::size_t h = std::hash<std::string>{}(os.str());
  std::ostringstream name;
  name << "scenario_" << std::hex << h << ".bwds";
  return name.str();
}

std::size_t generation_shards(std::size_t concurrency) {
  return concurrency <= 1 ? 1 : concurrency * 4;
}

ScenarioRun run_scenario(const gen::ScenarioConfig& config,
                         std::optional<std::string> cache_dir,
                         util::ThreadPool* pool,
                         const util::Deadline* deadline) {
  const obs::TraceSpan run_span("run_scenario", "generate");
  gen::Scenario scenario(config);
  ixp::Platform platform(gen::Scenario::platform_config(config));
  scenario.install(platform);

  std::string cache_path;
  if (!cache_dir.has_value()) {
    const char* env = std::getenv("BW_CACHE_DIR");
    cache_dir = env != nullptr ? std::string(env) : std::string("bw_cache");
  }
  if (!cache_dir->empty()) {
    std::filesystem::create_directories(*cache_dir);
    cache_path = *cache_dir + "/" + scenario_cache_name(config);
  }

  std::vector<CacheIncident> incidents;
  auto finish = [&](Dataset dataset) {
    ScenarioRun run{std::move(dataset), scenario.registry(),
                    platform.route_server().peer_asns(), scenario.truth(),
                    std::move(incidents)};
    return run;
  };

  if (!cache_path.empty() && std::filesystem::exists(cache_path)) {
    const obs::TraceSpan load_span("scenario.cache.load", "generate");
    auto loaded = Dataset::try_load(cache_path);
    if (loaded.ok()) {
      cache_counter("hit").add();
      return finish(std::move(loaded).value());
    }
    // Self-healing: a cache file that fails validation is a cache miss,
    // never a crash. Quarantine the bytes for post-mortem (best effort; a
    // failed rename falls back to removal so the bad file cannot be loaded
    // again), record the incident, and regenerate below.
    cache_counter("quarantined").add();
    CacheIncident incident;
    incident.path = cache_path;
    incident.error = loaded.status().to_string();
    const std::string quarantine = cache_path + ".corrupt";
    std::error_code ec;
    std::filesystem::rename(cache_path, quarantine, ec);
    if (!ec) {
      incident.quarantined_to = quarantine;
    } else {
      std::filesystem::remove(cache_path, ec);
    }
    incidents.push_back(std::move(incident));
  }
  // Reaching this point with caching enabled means the cache did not
  // deliver (absent or quarantined) and the corpus is regenerated.
  if (!cache_path.empty()) cache_counter("miss").add();

  // Sharded generation: cut the anchor-ordered emission plan into
  // contiguous, cost-balanced time slices and replay them concurrently
  // against the prepared platform. Every per-unit and per-burst draw is
  // content-keyed, and the slice outputs merge in shard order, so the
  // corpus bytes are invariant to the shard count (and thus BW_THREADS).
  util::ThreadPool& workers = util::pool_or_global(pool);
  const std::vector<gen::EmissionUnit> plan = scenario.emission_plan();
  const std::vector<gen::ShardRange> shards =
      gen::plan_shards(plan, generation_shards(workers.concurrency()));

  platform.prepare(scenario.control());
  std::vector<ixp::Platform::SliceResult> slices = util::parallel_map(
      workers, shards.size(),
      [&](std::size_t i) {
        const obs::TraceSpan slice_span("generate.run_slice", "generate");
        std::vector<gen::EmissionUnit> units(
            plan.begin() + static_cast<std::ptrdiff_t>(shards[i].begin),
            plan.begin() + static_cast<std::ptrdiff_t>(shards[i].end));
        return platform.run_slice(
            scenario.traffic_source(std::move(units), deadline));
      },
      0, deadline);
  ixp::RunResult result = platform.finish(std::move(slices));
  Dataset dataset = Dataset::from_run(std::move(result), platform);
  if (!cache_path.empty()) {
    // Cache writes are an optimisation: a save that still fails after the
    // bounded retry is recorded as an incident, never fatal. Only transient
    // (kUnavailable) errors are retried; a permanent error aborts at once.
    const obs::TraceSpan save_span("scenario.cache.save", "generate");
    const util::Status saved = util::retry_with_backoff(
        3, 10, [&] { return dataset.try_save(cache_path); });
    if (!saved.ok()) {
      cache_counter("save_failure").add();
      CacheIncident incident;
      incident.path = cache_path;
      incident.error = saved.to_string();
      incidents.push_back(std::move(incident));
    }
  }
  return finish(std::move(dataset));
}

gen::ScenarioConfig default_benchmark_scenario() {
  gen::ScenarioConfig cfg;
  cfg.scale = 0.25;
  if (const char* env = std::getenv("BW_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) cfg.scale = s;
  }
  return cfg;
}

}  // namespace bw::core
