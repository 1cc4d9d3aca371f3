// Example: run the online RTBH monitor over a scenario, replayed in
// timestamp order exactly as a live collector would deliver it.
//
// Prints the first alerts of each kind plus a summary comparing the online
// event segmentation with the offline pipeline — the operator-facing
// counterpart of the paper's retrospective analysis.
//
//   ./live_monitor [scale]
#include <cstdlib>
#include <iostream>
#include <map>

#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bw;
  gen::ScenarioConfig cfg;
  cfg.scale = argc > 1 ? std::atof(argv[1]) : 0.04;
  if (cfg.scale <= 0.0) cfg.scale = 0.04;

  std::cout << "Generating scenario at scale " << cfg.scale << "...\n";
  const core::ScenarioRun run = core::run_scenario(cfg, std::string{});

  std::map<core::AlertKind, std::size_t> counts;
  std::map<core::AlertKind, std::vector<std::string>> first;
  core::RtbhMonitor monitor({}, [&](const core::Alert& alert) {
    ++counts[alert.kind];
    auto& shown = first[alert.kind];
    if (shown.size() < 3) {
      shown.push_back(std::string("[")
                          .append(util::format_time(alert.time))
                          .append("] ")
                          .append(core::to_string(alert.kind))
                          .append(": ")
                          .append(alert.message));
    }
  });

  // Replay both feeds chronologically, as a collector tap would.
  const auto& updates = run.dataset.blackhole_updates();
  const auto& flows = run.dataset.flows();
  std::size_t ui = 0;
  std::size_t fi = 0;
  while (ui < updates.size() || fi < flows.size()) {
    const bool take_update =
        fi >= flows.size() ||
        (ui < updates.size() && updates[ui].time <= flows[fi].time);
    if (take_update) monitor.on_update(updates[ui++]);
    else monitor.on_flow(flows[fi++]);
  }
  monitor.finish(run.dataset.period().end);

  std::cout << "\nSample alerts:\n";
  for (const auto& [kind, lines] : first) {
    for (const auto& line : lines) std::cout << "  " << line << "\n";
  }

  const auto offline = core::merge_events(run.dataset.blackhole_updates(),
                                          run.dataset.period().end);
  util::TextTable table({"signal", "count"});
  for (const auto& [kind, n] : counts) {
    table.add_row({std::string(core::to_string(kind)),
                   util::fmt_count(static_cast<std::int64_t>(n))});
  }
  std::cout << "\n" << table;
  std::cout << "\nOnline events: " << monitor.total_events()
            << " | offline merge: " << offline.size() << " ("
            << util::fmt_percent(
                   static_cast<double>(monitor.total_events()) /
                       static_cast<double>(offline.size()),
                   1)
            << " agreement)\n";
  std::cout << "Every signal here is available *while the blackhole is "
               "still up* — the\npaper's retrospect (leaky /32s, forgotten "
               "zombies) becomes an operator alert.\n";
  return 0;
}
