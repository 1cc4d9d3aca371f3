// bw-analyze: run the complete IMC'19 analysis pipeline over a corpus and
// print the full operational report — the command-line face of the library.
// The corpus is either a .bwds dataset from bw-generate or a CSV directory
// (as written by `bw-generate --csv` or bw-faultgen).
//
//   bw-analyze CORPUS [--out-of-core] [--delta MINUTES] [--markdown OUT.md]
//              [--strict | --skip-bad-rows | --repair]
//              [--stage-timeout-s S] [--inject-hang STAGE]
//              [--metrics-out FILE] [--trace-out FILE]
//
// Exit codes: 0 ok, 2 usage, 3 data error, 4 internal (see tools/cli.hpp).
// A stage cancelled by --stage-timeout-s degrades that stage and the run
// still exits 0: degraded-but-complete is the success path, and the report
// (and stderr) say exactly which stages timed out.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "cli.hpp"
#include "core/flow_view.hpp"
#include "core/io_text.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/whatif.hpp"
#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

void usage() {
  std::cerr << "usage: bw-analyze CORPUS [--out-of-core] [--delta MINUTES]\n"
               "                  [--markdown OUT.md]\n"
               "                  [--strict | --skip-bad-rows | --repair]\n"
               "                  [--stage-timeout-s S] [--inject-hang STAGE]\n"
               "                  [--metrics-out FILE] [--trace-out FILE]\n"
               "  CORPUS is a .bwds file or a CSV corpus directory.\n"
               "  --out-of-core   stream flow chunks from a .bwds v3 file\n"
               "                  instead of materializing the corpus in RAM;\n"
               "                  the report is byte-identical to the in-RAM\n"
               "                  run\n"
               "  --strict        fail on the first malformed CSV row (default)\n"
               "  --skip-bad-rows drop malformed rows; account in data quality\n"
               "  --repair        like --skip-bad-rows, salvaging rows whose\n"
               "                  damage is confined to recoverable fields\n"
               "  --stage-timeout-s S  cancel any stage running past S seconds\n"
               "                  (cooperative watchdog; the stage degrades,\n"
               "                  the run completes)\n"
               "  --inject-hang STAGE  wedge STAGE until its timeout fires\n"
               "                  (testing only; requires --stage-timeout-s)\n"
            << bw::tools::kObsUsage;
}

std::string pct(double f, int p = 1) { return bw::util::fmt_percent(f, p); }

}  // namespace

int main(int argc, char** argv) {
  using namespace bw;
  std::string path;
  std::string markdown_out;
  bool out_of_core = false;
  core::AnalysisConfig acfg;
  tools::StrictnessOptions strictness;  // default: Strictness::kStrict
  tools::ObsOptions obs_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs_options.parse(argc, argv, i)) {
      continue;
    } else if (arg == "--delta" && i + 1 < argc) {
      acfg.merge_delta = util::minutes(std::atof(argv[++i]));
    } else if (arg == "--markdown" && i + 1 < argc) {
      markdown_out = argv[++i];
    } else if (arg == "--out-of-core") {
      out_of_core = true;
    } else if (arg == "--stage-timeout-s" && i + 1 < argc) {
      const double s = std::atof(argv[++i]);
      if (s <= 0.0) {
        std::cerr << "bw-analyze: --stage-timeout-s must be > 0\n";
        usage();
        return tools::kExitUsage;
      }
      acfg.stage_timeout = static_cast<util::DurationMs>(s * 1000.0);
    } else if (arg == "--inject-hang" && i + 1 < argc) {
      acfg.inject_stage_hangs.emplace_back(argv[++i]);
    } else if (strictness.parse(arg)) {
      continue;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return tools::kExitOk;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      usage();
      return tools::kExitUsage;
    }
  }
  if (path.empty()) {
    usage();
    return tools::kExitUsage;
  }
  if (!acfg.inject_stage_hangs.empty() && acfg.stage_timeout <= 0) {
    std::cerr << "bw-analyze: --inject-hang requires --stage-timeout-s\n";
    usage();
    return tools::kExitUsage;
  }
  obs_options.arm();

  try {
    std::cout << "Loading " << path << "...\n";
    std::optional<core::Dataset> dataset;
    core::IngestReport ingest;
    if (out_of_core) {
      if (std::filesystem::is_directory(path)) {
        std::cerr << "bw-analyze: --out-of-core requires a .bwds v3 file, "
                     "not a CSV directory\n";
        return tools::kExitUsage;
      }
      auto loaded = core::Dataset::try_open_chunked(path);
      if (!tools::check("bw-analyze", loaded.status())) return tools::kExitData;
      dataset.emplace(std::move(loaded).value());
    } else {
      auto loaded = tools::load_corpus(path, strictness.load_options, &ingest);
      if (!tools::check("bw-analyze", loaded.status())) return tools::kExitData;
      dataset.emplace(std::move(loaded).value());
    }

    // Counts only: summary() would scan (out of core: decode) every flow.
    const auto count = [](std::size_t n) {
      return util::fmt_count(static_cast<std::int64_t>(n));
    };
    std::cout << "Corpus: " << count(dataset->control().size())
              << " BGP updates, " << count(dataset->view().rows())
              << " flow records over "
              << util::format_duration(dataset->period().length()) << "\n";

    core::AnalysisReport r = core::run_pipeline(*dataset, acfg);
    r.data_quality.files = ingest.files;
    for (const auto& stage : r.data_quality.stages) {
      if (stage.degraded) {
        std::cerr << "bw-analyze: stage '" << stage.name
                  << (stage.timed_out ? "' timed out: " : "' degraded: ")
                  << stage.error << "\n";
      }
    }
    const double total_events =
        std::max<double>(static_cast<double>(r.events.size()), 1.0);

    std::cout << "\n--- RTBH events (delta = "
              << util::format_duration(acfg.merge_delta) << ") ---\n";
    std::cout << count(dataset->blackhole_updates().size())
              << " RTBH updates -> " << count(r.events.size())
              << " events over " << count(dataset->rs_index().prefix_count())
              << " prefixes\n";

    std::cout << "\n--- Pre-RTBH classification (Table 2) ---\n";
    util::TextTable t2({"class", "events", "share"});
    t2.add_row({"no sampled traffic",
                util::fmt_count(static_cast<std::int64_t>(r.pre.no_data)),
                pct(static_cast<double>(r.pre.no_data) / total_events)});
    t2.add_row(
        {"traffic, no anomaly <=10min",
         util::fmt_count(static_cast<std::int64_t>(r.pre.data_no_anomaly)),
         pct(static_cast<double>(r.pre.data_no_anomaly) / total_events)});
    t2.add_row(
        {"traffic + anomaly <=10min (DDoS-like)",
         util::fmt_count(static_cast<std::int64_t>(r.pre.data_anomaly_10m)),
         pct(static_cast<double>(r.pre.data_anomaly_10m) / total_events)});
    std::cout << t2;

    std::cout << "\n--- Acceptance / drop rates (Figs. 5-7) ---\n";
    util::TextTable t5({"prefix len", "traffic share", "dropped"});
    for (const auto& len : r.drop.by_length) {
      t5.add_row({std::string("/").append(std::to_string(len.length)),
                  pct(r.drop.traffic_share(len.length), 2),
                  pct(len.packet_drop_rate())});
    }
    std::cout << t5;
    const auto top = core::summarize_top_sources(r.drop, 100);
    std::cout << "top-100 sources towards /32 blackholes: " << top.full_droppers
              << " drop >99%, " << top.full_forwarders
              << " forward >99%, " << top.inconsistent << " inconsistent\n";

    std::cout << "\n--- Attack traffic (Tables 3, Figs. 14-15) ---\n";
    std::cout << "transport mix during attack events: "
              << pct(r.protocols.udp_share) << " UDP / "
              << pct(r.protocols.tcp_share) << " TCP\n";
    std::cout << "events fully coverable by amplification-port filters: "
              << pct(r.filtering.fully_filterable_fraction) << " of "
              << r.filtering.events_considered << "\n";
    if (!r.participation.origins.empty()) {
      std::cout << "top reflector origin AS" << r.participation.origins[0].asn
                << ": in " << pct(r.participation.origins[0].event_share, 0)
                << " of attacks, "
                << pct(r.participation.origins[0].traffic_share, 1)
                << " of attack traffic\n";
    }

    std::cout << "\n--- Victims (Figs. 16-18, Table 4) ---\n";
    std::cout << r.ports.clients << " client-like and " << r.ports.servers
              << " server-like blackholed hosts ("
              << pct(r.ports.blackholed_hosts_total > 0
                         ? static_cast<double>(r.ports.eligible_hosts) /
                               static_cast<double>(
                                   r.ports.blackholed_hosts_total)
                         : 0.0,
                     0)
              << " of blackholed addresses meet the 20-day criterion)\n";
    std::cout << r.collateral.events.size()
              << " (server,event) pairs with service-port traffic during an "
                 "active blackhole\n";

    std::cout << "\n--- Use-case classification (Fig. 19) ---\n";
    util::TextTable t19({"class", "events", "share"});
    t19.add_row(
        {"infrastructure protection",
         util::fmt_count(static_cast<std::int64_t>(r.classes.infrastructure)),
         pct(static_cast<double>(r.classes.infrastructure) / total_events)});
    t19.add_row(
        {"squatting candidates",
         util::fmt_count(static_cast<std::int64_t>(r.classes.squatting)),
         pct(static_cast<double>(r.classes.squatting) / total_events)});
    t19.add_row({"zombie candidates",
                 util::fmt_count(static_cast<std::int64_t>(r.classes.zombies)),
                 pct(static_cast<double>(r.classes.zombies) / total_events)});
    t19.add_row({"other",
                 util::fmt_count(static_cast<std::int64_t>(r.classes.other)),
                 pct(static_cast<double>(r.classes.other) / total_events)});
    std::cout << t19;

    std::cout << "\n--- Mitigation what-if (extension) ---\n";
    const auto whatif =
        core::compute_whatif(*dataset, r.events, r.pre, acfg.pool);
    util::TextTable tw({"strategy", "attack dropped", "legit dropped"});
    for (const auto& o : whatif.outcomes) {
      tw.add_row({std::string(core::to_string(o.strategy)), pct(o.efficacy()),
                  pct(o.collateral())});
    }
    std::cout << tw;

    if (!r.data_quality.clean()) {
      std::cout << "\n--- Data quality ---\n";
      for (const auto& f : r.data_quality.files) {
        if (!f.clean()) std::cout << f.summary() << "\n";
      }
      const auto& q = r.data_quality.dataset;
      if (!q.clean()) {
        std::cout << "sanitation: " << q.reordered_updates + q.reordered_flows
                  << " re-sorted, "
                  << q.out_of_period_updates + q.out_of_period_flows
                  << " out-of-period, " << q.duplicate_flows
                  << " duplicate flows, " << q.unknown_mac_flows
                  << " unattributable-MAC flows\n";
      }
    }

    if (!markdown_out.empty()) {
      // Atomic emission: a crash mid-write must never leave a torn report
      // under the final name for a consumer to pick up.
      const util::Status st = util::atomic_write_file(
          markdown_out, core::render_markdown(*dataset, r, &whatif));
      if (!tools::check("bw-analyze", st)) return tools::kExitData;
      std::cout << "\nWrote markdown report to " << markdown_out << "\n";
    }

    obs::Manifest manifest;
    manifest.tool = "bw-analyze";
    manifest.corpus = path;
    manifest.threads = util::ThreadPool::configured_concurrency();
    for (const auto& stage : r.data_quality.stages) {
      manifest.stages.push_back(
          {stage.name, 0, 0, stage.degraded, stage.timed_out});
    }
    manifest.populate_from_metrics(obs::Registry::global().snapshot());
    if (!obs_options.emit("bw-analyze", manifest)) return tools::kExitData;

    return tools::kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "bw-analyze: internal error: " << e.what() << "\n";
    return tools::kExitInternal;
  }
}
