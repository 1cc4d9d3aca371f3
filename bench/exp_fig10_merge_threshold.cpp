// Figure 10: fraction of RTBH events in all RTBH announcements as a
// function of the merge threshold delta (Section 5.1).
//
// Paper: the last significant drop happens up to delta = 10 minutes; at
// that threshold 400k announcements collapse into 34k events (8.5%). The
// delta = infinity lower bound equals the number of announced prefixes.
#include "common.hpp"
#include "core/event_merge.hpp"

int main() {
  using namespace bw;
  auto exp = bench::load_experiment("fig10");

  std::vector<util::DurationMs> deltas;
  for (const double m : {0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0,
                         30.0, 60.0, 120.0, 300.0}) {
    deltas.push_back(util::minutes(m));
  }
  const auto sweep = core::merge_sweep(exp.run.dataset.blackhole_updates(),
                                       exp.run.dataset.period().end, deltas);

  bench::print_header("Fig. 10", "event fraction vs merge threshold delta");
  util::TextTable table({"delta", "events", "events/announcements"});
  auto csv = bench::open_csv("fig10_merge_threshold",
                             {"delta_ms", "events", "fraction"});
  for (const auto& p : sweep) {
    const std::string label =
        p.delta < 0 ? "infinity" : util::format_duration(p.delta);
    table.add_row({label, util::fmt_count(static_cast<std::int64_t>(p.events)),
                   util::fmt_percent(p.event_fraction, 2)});
    csv->write_row({std::to_string(p.delta), std::to_string(p.events),
                    util::fmt_double(p.event_fraction, 5)});
  }
  std::cout << table;

  double at10 = 0.0;
  std::size_t events10 = 0;
  for (const auto& p : sweep) {
    if (p.delta == util::minutes(10.0)) {
      at10 = p.event_fraction;
      events10 = p.events;
    }
  }
  bench::print_paper_row("event fraction at delta = 10 min", "8.5%",
                         util::fmt_percent(at10, 1));
  bench::print_paper_row(
      "events at delta = 10 min", "34k (x scale)",
      util::fmt_count(static_cast<std::int64_t>(events10)));
  return 0;
}
