// Figure 5: observed shares of dropped traffic by RTBH prefix length, with
// the per-length traffic share (the opacity axis of the paper's figure).
//
// Paper: 99.9% of RTBH traffic goes to /32 prefixes but only ~50% of the
// packets (44% of bytes) are dropped; /22-/24 blackholes are accepted as
// best paths in 93-99% of the cases; /25-/31 behave like /32.
#include "common.hpp"

int main() {
  using namespace bw;
  auto exp = bench::load_experiment("fig05");
  const auto& drop = exp.report.drop;

  bench::print_header("Fig. 5", "dropped-traffic share by RTBH prefix length");
  util::TextTable table({"prefix len", "traffic share", "dropped (packets)",
                         "dropped (bytes)", "packets"});
  auto csv = bench::open_csv("fig05_drop_by_preflen",
                             {"length", "traffic_share", "drop_rate_packets",
                              "drop_rate_bytes", "packets_total"});
  for (const auto& s : drop.by_length) {
    table.add_row({std::string("/").append(std::to_string(s.length)),
                   util::fmt_percent(drop.traffic_share(s.length), 3),
                   util::fmt_percent(s.packet_drop_rate(), 1),
                   util::fmt_percent(s.byte_drop_rate(), 1),
                   util::fmt_count(static_cast<std::int64_t>(s.packets_total))});
    csv->write_row({std::to_string(s.length),
                    util::fmt_double(drop.traffic_share(s.length), 6),
                    util::fmt_double(s.packet_drop_rate(), 4),
                    util::fmt_double(s.byte_drop_rate(), 4),
                    std::to_string(s.packets_total)});
  }
  std::cout << table;

  double rate32_p = 0.0;
  double rate32_b = 0.0;
  double rate24 = 0.0;
  for (const auto& s : drop.by_length) {
    if (s.length == 32) {
      rate32_p = s.packet_drop_rate();
      rate32_b = s.byte_drop_rate();
    }
    if (s.length == 24) rate24 = s.packet_drop_rate();
  }
  bench::print_paper_row("traffic share of /32 RTBHs", "99.9%",
                         util::fmt_percent(drop.traffic_share(32), 2));
  bench::print_paper_row("packets dropped for /32", "50%",
                         util::fmt_percent(rate32_p, 1));
  bench::print_paper_row("bytes dropped for /32", "44%",
                         util::fmt_percent(rate32_b, 1));
  bench::print_paper_row("packets dropped for /24", "93-99%",
                         util::fmt_percent(rate24, 1));
  return 0;
}
