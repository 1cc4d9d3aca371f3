// bw-generate: produce a synthetic RTBH measurement corpus and write it to
// a self-contained .bwds file for later analysis with bw-analyze — or
// convert an existing CSV corpus directory into a .bwds dataset.
//
//   bw-generate --out corpus.bwds [--scale 0.25] [--seed 20191021]
//               [--days 104] [--sampling 10000] [--threads N] [--csv DIR]
//               [--stage-timeout-s S] [--metrics-out FILE] [--trace-out FILE]
//   bw-generate --out corpus.bwds --from-csv DIR
//               [--strict | --skip-bad-rows | --repair]
//
// Exit codes: 0 ok, 2 usage, 3 data error, 4 internal (see tools/cli.hpp).
// A generation run cancelled by --stage-timeout-s exits 3: unlike a
// degraded analysis stage there is no partial corpus worth keeping, so the
// timeout is a data error, not a success.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "util/parallel.hpp"

#include "cli.hpp"
#include "core/io_text.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace {

void usage() {
  std::cerr << "usage: bw-generate --out FILE [--scale S] [--seed N]\n"
               "                   [--days D] [--sampling N] [--threads N]\n"
               "                   [--csv DIR]\n"
               "       bw-generate --out FILE --from-csv DIR\n"
               "                   [--strict | --skip-bad-rows | --repair]\n"
               "\n"
               "Generates a 104-day (configurable) synthetic IXP corpus —\n"
               "route-server BGP log plus sampled flow records — calibrated\n"
               "to the IMC'19 blackholing study, and saves it as a .bwds\n"
               "dataset. With --from-csv, converts a CSV corpus directory\n"
               "into a .bwds dataset instead of generating one.\n"
               "\n"
               "  --scale S    population/event scale, 0 < S <= 4\n"
               "  --threads N  worker threads for generation, index build\n"
               "               and save (default: $BW_THREADS or hardware\n"
               "               concurrency); the corpus is byte-identical\n"
               "               at any N\n"
               "  --stage-timeout-s S  cancel generation past S seconds\n"
               "               (cooperative watchdog; exits 3, no corpus)\n"
            << bw::tools::kObsUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bw;
  std::string out;
  std::string csv_dir;
  std::string from_csv;
  std::optional<std::size_t> threads;
  util::DurationMs stage_timeout = 0;
  core::LoadOptions load_options;  // default: Strictness::kStrict
  tools::ObsOptions obs_options;
  gen::ScenarioConfig cfg;
  cfg.scale = 0.25;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(tools::kExitUsage);
      }
      return argv[++i];
    };
    if (obs_options.parse(argc, argv, i)) continue;
    if (arg == "--out") out = value();
    else if (arg == "--csv") csv_dir = value();
    else if (arg == "--from-csv") from_csv = value();
    else if (arg == "--strict") load_options.strictness = core::Strictness::kStrict;
    else if (arg == "--skip-bad-rows") load_options.strictness = core::Strictness::kSkip;
    else if (arg == "--repair") load_options.strictness = core::Strictness::kRepair;
    else if (arg == "--scale") cfg.scale = std::atof(value());
    else if (arg == "--seed") cfg.seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--threads") {
      const long n = std::atol(value());
      if (n < 1) {
        std::cerr << "bw-generate: --threads must be >= 1\n";
        usage();
        return tools::kExitUsage;
      }
      threads = static_cast<std::size_t>(n);
    } else if (arg == "--stage-timeout-s") {
      const double s = std::atof(value());
      if (s <= 0.0) {
        std::cerr << "bw-generate: --stage-timeout-s must be > 0\n";
        usage();
        return tools::kExitUsage;
      }
      stage_timeout = static_cast<util::DurationMs>(s * 1000.0);
    } else if (arg == "--days") {
      cfg.period = {0, util::days(std::atof(value()))};
    } else if (arg == "--sampling") {
      cfg.sampling_rate = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return tools::kExitOk;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      usage();
      return tools::kExitUsage;
    }
  }
  if (out.empty()) {
    usage();
    return tools::kExitUsage;
  }
  // Scale is a population multiplier: non-positive generates nothing and
  // anything past 4x the paper's population is a typo, not a corpus.
  if (from_csv.empty() && !(cfg.scale > 0.0 && cfg.scale <= 4.0)) {
    std::cerr << "bw-generate: --scale must be in (0, 4], got " << cfg.scale
              << "\n";
    usage();
    return tools::kExitUsage;
  }
  obs_options.arm();

  auto emit_observability = [&](const std::string& corpus, bool generated) {
    obs::Manifest manifest;
    manifest.tool = "bw-generate";
    manifest.corpus = corpus;
    if (generated) {
      manifest.scenario_fingerprint = core::scenario_cache_name(cfg);
      manifest.has_seed = true;
      manifest.seed = cfg.seed;
    }
    manifest.threads =
        threads.value_or(util::ThreadPool::configured_concurrency());
    manifest.populate_from_metrics(obs::Registry::global().snapshot());
    return obs_options.emit("bw-generate", manifest);
  };

  try {
    // One pool for every parallel step: generation, merge, index build and
    // save all honour --threads.
    const std::size_t n_threads =
        threads.value_or(util::ThreadPool::configured_concurrency());
    util::ThreadPool pool(n_threads - 1);
    if (!from_csv.empty()) {
      core::IngestReport ingest;
      auto loaded = core::load_dataset_csv(from_csv, load_options, &ingest);
      for (const auto& f : ingest.files) {
        if (!f.clean()) std::cerr << f.summary() << "\n";
      }
      if (!tools::check("bw-generate", loaded.status())) {
        return tools::kExitData;
      }
      if (!tools::check("bw-generate", loaded.value().try_save(out, &pool))) {
        return tools::kExitData;
      }
      std::cout << "Converted " << from_csv << " -> " << out << "\n";
      if (!emit_observability(from_csv, false)) return tools::kExitData;
      return tools::kExitOk;
    }

    std::cout << "Generating scenario: scale " << cfg.scale << ", seed "
              << cfg.seed << ", "
              << util::format_duration(cfg.period.length()) << ", 1:"
              << cfg.sampling_rate << " sampling, " << n_threads
              << " thread(s)...\n";
    const util::Deadline deadline = stage_timeout > 0
                                        ? util::Deadline::after(stage_timeout)
                                        : util::Deadline::never();
    // One clock source for all tool timing: the obs StopWatch (the same
    // steady_clock the metrics and bench harnesses report from).
    const obs::StopWatch watch;
    const core::ScenarioRun run =
        core::run_scenario(cfg, std::string{}, &pool, &deadline);
    const double secs = watch.elapsed_seconds();
    if (!tools::check("bw-generate", run.dataset.try_save(out, &pool))) {
      return tools::kExitData;
    }

    const auto s = run.dataset.summary(&pool);
    util::TextTable table({"corpus", "value"});
    table.add_row({"BGP updates", util::fmt_count(static_cast<std::int64_t>(
                                      s.control_updates))});
    table.add_row({"RTBH updates", util::fmt_count(static_cast<std::int64_t>(
                                       s.blackhole_updates))});
    table.add_row({"blackholed prefixes",
                   util::fmt_count(static_cast<std::int64_t>(
                       s.blackholed_prefixes))});
    table.add_row({"sampled flow records",
                   util::fmt_count(static_cast<std::int64_t>(s.flow_records))});
    table.add_row(
        {"sampled packets dropped",
         util::fmt_count(static_cast<std::int64_t>(s.dropped_packets))});
    std::cout << table << "Generated in " << secs << " s ("
              << (secs > 0.0 ? static_cast<double>(s.flow_records) / secs
                             : 0.0)
              << " flows/s)\nWrote " << out << "\n";
    if (!csv_dir.empty()) {
      core::export_dataset_csv(run.dataset, csv_dir);
      std::cout << "Exported CSV corpus to " << csv_dir << "/\n";
    }
    if (!emit_observability(out, true)) return tools::kExitData;
    return tools::kExitOk;
  } catch (const util::DeadlineExceeded& e) {
    std::cerr << "bw-generate: run exceeded --stage-timeout-s: " << e.what()
              << "\n";
    return tools::kExitData;
  } catch (const std::exception& e) {
    std::cerr << "bw-generate: internal error: " << e.what() << "\n";
    return tools::kExitInternal;
  }
}
