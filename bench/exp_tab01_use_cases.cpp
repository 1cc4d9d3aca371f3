// Table 1: literature-based expected RTBH characteristics per use case —
// validated here against the *measured* behaviour of each ground-truth
// class in the synthetic corpus (prefix length, reaction latency, duration).
//
// Paper expectations: infrastructure protection /32, secs-mins reaction,
// mins-hours duration, attack traffic at servers; squatting protection
// <= /24, manual, months, scan traffic only; content blocking /32, manual,
// weeks-months, normal traffic.
#include "common.hpp"
#include "util/stats.hpp"

int main() {
  using namespace bw;
  auto exp = bench::load_experiment("tab01");

  struct Row {
    std::vector<double> prefix_len;
    std::vector<double> latency_s;
    std::vector<double> duration_h;
    std::size_t count{0};
  };
  std::map<gen::UseCase, Row> rows;
  for (const auto& ev : exp.run.truth.events) {
    Row& r = rows[ev.use_case];
    ++r.count;
    r.prefix_len.push_back(ev.prefix.length());
    r.duration_h.push_back(static_cast<double>(ev.rtbh_span.length()) /
                           static_cast<double>(util::kHour));
    if (ev.has_attack) {
      r.latency_s.push_back(
          static_cast<double>(ev.rtbh_span.begin - ev.attack_window.begin) /
          static_cast<double>(util::kSecond));
    }
  }

  bench::print_header("Tab. 1", "expected vs generated use-case characteristics");
  util::TextTable table({"use case", "events", "median /len", "median latency",
                         "median duration"});
  auto csv = bench::open_csv("tab01_use_cases",
                             {"use_case", "events", "median_len",
                              "median_latency_s", "median_duration_h"});
  for (const auto& [use_case, r] : rows) {
    const auto name = std::string(gen::to_string(use_case));
    const double len = util::median(r.prefix_len);
    const double lat = r.latency_s.empty() ? 0.0 : util::median(r.latency_s);
    const double dur = util::median(r.duration_h);
    table.add_row({name, util::fmt_count(static_cast<std::int64_t>(r.count)),
                   std::string("/").append(util::fmt_double(len, 0)),
                   r.latency_s.empty() ? "manual/NA"
                                       : util::format_duration(util::seconds(lat)),
                   util::format_duration(util::hours(dur))});
    csv->write_row({name, std::to_string(r.count), util::fmt_double(len, 1),
                    util::fmt_double(lat, 1), util::fmt_double(dur, 2)});
  }
  std::cout << table;

  bench::print_paper_row("infrastructure protection", "/32, secs-mins, mins-hours",
                         "see table row");
  bench::print_paper_row("squatting protection", "<= /24, manual, months",
                         "see table row");
  bench::print_paper_row("content blocking", "/32, manual, weeks-months",
                         "see table row");
  return 0;
}
