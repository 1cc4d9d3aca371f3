#include "core/io_text.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bw::core {

namespace {

/// ingest.* counters mirror LoadReport accounting process-wide so a run
/// manifest can state row totals without re-walking per-file reports.
struct IngestMetrics {
  obs::Counter* files;
  obs::Counter* rows_read;
  obs::Counter* rows_skipped;
  obs::Counter* rows_repaired;
};

const IngestMetrics& ingest_metrics() {
  static const IngestMetrics m = [] {
    auto& reg = obs::Registry::global();
    return IngestMetrics{&reg.counter("ingest.files"),
                         &reg.counter("ingest.rows_read"),
                         &reg.counter("ingest.rows_skipped"),
                         &reg.counter("ingest.rows_repaired")};
  }();
  return m;
}

/// Read one line, stripping the trailing '\r' a CRLF (Windows-edited) file
/// leaves on every field-terminating getline.
bool next_line(std::istream& is, std::string& line) {
  if (!std::getline(is, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

/// Split `line` on `sep` into `out` (cleared first). The views alias
/// `line`, so `out` is valid only until the line buffer changes.
void split_fields(std::string_view line, char sep,
                  std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(line.substr(start));
      return;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

template <typename T>
bool parse_int(std::string_view s, T& out) {
  if (s.empty()) return false;
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && p == end;
}

std::string field_error(const char* what, std::string_view value) {
  std::string msg = "bad ";
  msg += what;
  msg += " '";
  msg.append(value.substr(0, 32));
  if (value.size() > 32) msg += "...";
  msg += '\'';
  return msg;
}

/// Drive the shared streaming row loop: header handling, physical line
/// numbers, CRLF stripping, blank lines, and the strictness policy.
///
/// `parse(fields, allow_repair, repair_note)` consumes one row: on success
/// it appends to the caller's output and returns OK (setting *repair_note
/// when it salvaged the row); on failure it returns a Status describing the
/// first fault in the row. kStrict turns that Status into the load's
/// result; kSkip/kRepair count the row and continue.
template <typename ParseRow>
util::Status stream_rows(std::istream& is, const LoadOptions& options,
                         LoadReport& report, ParseRow&& parse) {
  const obs::TraceSpan span("ingest." + report.file, "io");
  const IngestMetrics& metrics = ingest_metrics();
  metrics.files->add();
  // Deltas against entry values so a pre-populated report is not
  // double-counted into the process-wide totals.
  const std::size_t read0 = report.rows_read;
  const std::size_t skipped0 = report.rows_skipped;
  const std::size_t repaired0 = report.rows_repaired;
  auto settle = [&] {
    metrics.rows_read->add(report.rows_read - read0);
    metrics.rows_skipped->add(report.rows_skipped - skipped0);
    metrics.rows_repaired->add(report.rows_repaired - repaired0);
  };
  std::string line;
  std::vector<std::string_view> fields;
  std::size_t line_no = 1;
  if (!next_line(is, line)) return util::ok_status();  // empty file
  const bool allow_repair = options.strictness == Strictness::kRepair;
  while (next_line(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    split_fields(line, ',', fields);
    std::string repair_note;
    util::Status row = parse(fields, allow_repair, &repair_note);
    if (row.ok()) {
      ++report.rows_read;
      if (!repair_note.empty()) {
        ++report.rows_repaired;
        report.note(line_no, "repaired: " + repair_note,
                    options.max_diagnostics);
      }
      continue;
    }
    if (options.strictness == Strictness::kStrict) {
      settle();
      return std::move(row).with_context("line " + std::to_string(line_no));
    }
    ++report.rows_skipped;
    report.note(line_no, row.message(), options.max_diagnostics);
  }
  settle();
  return util::ok_status();
}

/// Bind a caller-supplied (or local throwaway) report and default its file
/// name.
LoadReport& bind_report(LoadReport* out, LoadReport& local, const char* name) {
  LoadReport& report = out != nullptr ? *out : local;
  if (report.file.empty()) report.file = name;
  return report;
}

}  // namespace

void write_control_csv(std::ostream& os, const bgp::UpdateLog& log) {
  os << "time_ms,type,sender_asn,origin_asn,prefix,next_hop,communities\n";
  for (const auto& u : log) {
    os << u.time << ','
       << (u.type == bgp::UpdateType::kAnnounce ? 'A' : 'W') << ','
       << u.sender_asn << ',' << u.origin_asn << ',' << u.prefix.to_string()
       << ',' << u.next_hop.to_string() << ',';
    for (std::size_t i = 0; i < u.communities.size(); ++i) {
      if (i != 0) os << ' ';
      os << u.communities[i].to_string();
    }
    os << '\n';
  }
}

void write_flows_csv(std::ostream& os, const flow::FlowLog& flows) {
  os << "time_ms,src_ip,dst_ip,proto,src_port,dst_port,src_mac,dst_mac,"
        "packets,bytes\n";
  for (const auto& r : flows) {
    os << r.time << ',' << r.src_ip.to_string() << ',' << r.dst_ip.to_string()
       << ',' << static_cast<int>(r.proto) << ',' << r.src_port << ','
       << r.dst_port << ',' << r.src_mac.to_string() << ','
       << r.dst_mac.to_string() << ',' << r.packets << ',' << r.bytes << '\n';
  }
}

void write_macs_csv(std::ostream& os,
                    const std::unordered_map<net::Mac, bgp::Asn>& macs) {
  os << "mac,asn\n";
  for (const auto& [mac, asn] : macs) {
    os << mac.to_string() << ',' << asn << '\n';
  }
}

void write_origins_csv(
    std::ostream& os,
    const std::vector<std::pair<net::Prefix, bgp::Asn>>& origins) {
  os << "prefix,asn\n";
  for (const auto& [prefix, asn] : origins) {
    os << prefix.to_string() << ',' << asn << '\n';
  }
}

void export_dataset_csv(const Dataset& dataset, const std::string& directory) {
  std::filesystem::create_directories(directory);
  auto open = [&](const char* name) {
    std::ofstream os(directory + "/" + name, std::ios::trunc);
    if (!os) {
      throw std::runtime_error(std::string("export_dataset_csv: cannot open ") +
                               directory + "/" + name);
    }
    return os;
  };
  {
    auto os = open("control.csv");
    write_control_csv(os, dataset.control());
  }
  {
    auto os = open("flows.csv");
    write_flows_csv(os, dataset.flows());
  }
  {
    auto os = open("macs.csv");
    write_macs_csv(os, dataset.mac_table());
  }
  {
    auto os = open("origins.csv");
    write_origins_csv(os, dataset.origin_prefixes());
  }
  {
    auto os = open("period.csv");
    os << "begin_ms,end_ms\n"
       << dataset.period().begin << ',' << dataset.period().end << '\n';
  }
}

util::Result<bgp::UpdateLog> read_control_csv(std::istream& is,
                                              const LoadOptions& options,
                                              LoadReport* report_out) {
  bgp::UpdateLog log;
  LoadReport local;
  LoadReport& report = bind_report(report_out, local, "control.csv");
  std::vector<std::string_view> community_fields;
  util::Status st = stream_rows(
      is, options, report,
      [&](const std::vector<std::string_view>& f, bool allow_repair,
          std::string* repair_note) -> util::Status {
        if (f.size() != 7) {
          return util::data_loss("expected 7 fields, got " +
                                 std::to_string(f.size()));
        }
        bgp::Update u;
        if (!parse_int(f[0], u.time)) {
          return util::invalid_argument(field_error("time_ms", f[0]));
        }
        if (f[1] == "A") u.type = bgp::UpdateType::kAnnounce;
        else if (f[1] == "W") u.type = bgp::UpdateType::kWithdraw;
        else return util::invalid_argument(field_error("type", f[1]));
        if (!parse_int(f[2], u.sender_asn)) {
          return util::invalid_argument(field_error("sender_asn", f[2]));
        }
        if (!parse_int(f[3], u.origin_asn)) {
          return util::invalid_argument(field_error("origin_asn", f[3]));
        }
        const auto prefix = net::Prefix::parse(f[4]);
        if (!prefix) return util::invalid_argument(field_error("prefix", f[4]));
        const auto next_hop = net::Ipv4::parse(f[5]);
        if (!next_hop) {
          return util::invalid_argument(field_error("next_hop", f[5]));
        }
        u.prefix = *prefix;
        u.next_hop = *next_hop;
        if (!f[6].empty()) {
          split_fields(f[6], ' ', community_fields);
          for (const auto c : community_fields) {
            const auto community = bgp::Community::parse(c);
            if (!community) {
              // The communities list is the one optional field: a mangled
              // list is recoverable by dropping it (the update itself —
              // time, prefix, peers — survives).
              if (allow_repair) {
                u.communities.clear();
                *repair_note = field_error("communities", f[6]) + ", dropped";
                break;
              }
              return util::invalid_argument(field_error("community", c));
            }
            u.communities.push_back(*community);
          }
        }
        log.push_back(std::move(u));
        return util::ok_status();
      });
  if (!st.ok()) return std::move(st).with_context(report.file);
  return log;
}

util::Result<flow::FlowLog> read_flows_csv(std::istream& is,
                                           const LoadOptions& options,
                                           LoadReport* report_out) {
  flow::FlowLog flows;
  LoadReport local;
  LoadReport& report = bind_report(report_out, local, "flows.csv");
  util::Status st = stream_rows(
      is, options, report,
      [&](const std::vector<std::string_view>& f, bool allow_repair,
          std::string* repair_note) -> util::Status {
        // A truncated tail leaves the last row with fewer fields; rows with
        // 8+ intact leading fields are repairable (packets/bytes default).
        if (f.size() > 10 || (f.size() < 10 && !(allow_repair && f.size() >= 8))) {
          return util::data_loss("expected 10 fields, got " +
                                 std::to_string(f.size()));
        }
        flow::FlowRecord r;
        int proto = 0;
        if (!parse_int(f[0], r.time)) {
          return util::invalid_argument(field_error("time_ms", f[0]));
        }
        const auto src = net::Ipv4::parse(f[1]);
        if (!src) return util::invalid_argument(field_error("src_ip", f[1]));
        const auto dst = net::Ipv4::parse(f[2]);
        if (!dst) return util::invalid_argument(field_error("dst_ip", f[2]));
        if (!parse_int(f[3], proto)) {
          return util::invalid_argument(field_error("proto", f[3]));
        }
        if (!parse_int(f[4], r.src_port)) {
          return util::invalid_argument(field_error("src_port", f[4]));
        }
        if (!parse_int(f[5], r.dst_port)) {
          return util::invalid_argument(field_error("dst_port", f[5]));
        }
        const auto smac = net::Mac::parse(f[6]);
        if (!smac) return util::invalid_argument(field_error("src_mac", f[6]));
        const auto dmac = net::Mac::parse(f[7]);
        if (!dmac) return util::invalid_argument(field_error("dst_mac", f[7]));
        r.src_ip = *src;
        r.dst_ip = *dst;
        r.proto = static_cast<net::Proto>(proto);
        r.src_mac = *smac;
        r.dst_mac = *dmac;
        const bool volume_ok = f.size() == 10 && parse_int(f[8], r.packets) &&
                               parse_int(f[9], r.bytes);
        if (!volume_ok) {
          if (!allow_repair) {
            // Only reachable with 10 fields: shorter rows bailed above.
            return util::invalid_argument(field_error("packets/bytes", f[8]));
          }
          r.packets = 1;
          r.bytes = 0;
          *repair_note = "defaulted packets/bytes on damaged tail";
        }
        flows.push_back(r);
        return util::ok_status();
      });
  if (!st.ok()) return std::move(st).with_context(report.file);
  return flows;
}

util::Result<std::unordered_map<net::Mac, bgp::Asn>> read_macs_csv(
    std::istream& is, const LoadOptions& options, LoadReport* report_out) {
  std::unordered_map<net::Mac, bgp::Asn> macs;
  LoadReport local;
  LoadReport& report = bind_report(report_out, local, "macs.csv");
  util::Status st = stream_rows(
      is, options, report,
      [&](const std::vector<std::string_view>& f, bool /*allow_repair*/,
          std::string* /*repair_note*/) -> util::Status {
        if (f.size() != 2) {
          return util::data_loss("expected 2 fields, got " +
                                 std::to_string(f.size()));
        }
        const auto mac = net::Mac::parse(f[0]);
        if (!mac) return util::invalid_argument(field_error("mac", f[0]));
        bgp::Asn asn = 0;
        if (!parse_int(f[1], asn)) {
          return util::invalid_argument(field_error("asn", f[1]));
        }
        macs[*mac] = asn;
        return util::ok_status();
      });
  if (!st.ok()) return std::move(st).with_context(report.file);
  return macs;
}

util::Result<std::vector<std::pair<net::Prefix, bgp::Asn>>> read_origins_csv(
    std::istream& is, const LoadOptions& options, LoadReport* report_out) {
  std::vector<std::pair<net::Prefix, bgp::Asn>> origins;
  LoadReport local;
  LoadReport& report = bind_report(report_out, local, "origins.csv");
  util::Status st = stream_rows(
      is, options, report,
      [&](const std::vector<std::string_view>& f, bool /*allow_repair*/,
          std::string* /*repair_note*/) -> util::Status {
        if (f.size() != 2) {
          return util::data_loss("expected 2 fields, got " +
                                 std::to_string(f.size()));
        }
        const auto prefix = net::Prefix::parse(f[0]);
        if (!prefix) return util::invalid_argument(field_error("prefix", f[0]));
        bgp::Asn asn = 0;
        if (!parse_int(f[1], asn)) {
          return util::invalid_argument(field_error("asn", f[1]));
        }
        origins.emplace_back(*prefix, asn);
        return util::ok_status();
      });
  if (!st.ok()) return std::move(st).with_context(report.file);
  return origins;
}

util::Result<util::TimeRange> read_period_csv(std::istream& is) {
  std::string line;
  if (!next_line(is, line)) {
    return util::data_loss("period.csv: empty file");
  }
  if (!next_line(is, line)) {
    return util::data_loss("period.csv: missing period row");
  }
  std::vector<std::string_view> f;
  split_fields(line, ',', f);
  util::TimeRange period{0, 0};
  if (f.size() != 2 || !parse_int(f[0], period.begin) ||
      !parse_int(f[1], period.end)) {
    return util::data_loss("period.csv: malformed period row");
  }
  return period;
}

util::Result<Dataset> load_dataset_csv(const std::string& directory,
                                       const LoadOptions& options,
                                       IngestReport* report_out) {
  IngestReport local;
  IngestReport& report = report_out != nullptr ? *report_out : local;
  report.files.clear();

  auto open = [&](const char* name,
                  std::ifstream& is) -> util::Status {
    is.open(directory + "/" + name);
    if (!is) {
      return util::not_found(std::string("cannot open ") + directory + "/" +
                             name);
    }
    return util::ok_status();
  };
  auto with_dir = [&](util::Status st) {
    return std::move(st).with_context("load_dataset_csv: " + directory);
  };

  std::ifstream control_is, flows_is, macs_is, origins_is, period_is;
  if (auto st = open("control.csv", control_is); !st.ok()) return with_dir(st);
  auto control =
      read_control_csv(control_is, options, &report.files.emplace_back());
  if (!control.ok()) return with_dir(control.status());

  if (auto st = open("flows.csv", flows_is); !st.ok()) return with_dir(st);
  auto flows = read_flows_csv(flows_is, options, &report.files.emplace_back());
  if (!flows.ok()) return with_dir(flows.status());

  if (auto st = open("macs.csv", macs_is); !st.ok()) return with_dir(st);
  auto macs = read_macs_csv(macs_is, options, &report.files.emplace_back());
  if (!macs.ok()) return with_dir(macs.status());

  if (auto st = open("origins.csv", origins_is); !st.ok()) return with_dir(st);
  auto origins =
      read_origins_csv(origins_is, options, &report.files.emplace_back());
  if (!origins.ok()) return with_dir(origins.status());

  if (auto st = open("period.csv", period_is); !st.ok()) return with_dir(st);
  auto period = read_period_csv(period_is);
  if (!period.ok()) return with_dir(period.status());

  Dataset::BuildOptions build;
  if (options.strictness != Strictness::kStrict) {
    // Degraded mode: a tolerant load also tolerates in-band damage —
    // duplicated rows and clock-skewed (out-of-period) records are
    // quarantined and accounted in Dataset::quality().
    build.dedupe_flows = true;
    build.quarantine_out_of_period = true;
  }
  return Dataset(std::move(control).value(), std::move(flows).value(),
                 std::move(macs).value(), std::move(origins).value(),
                 *period, build);
}

}  // namespace bw::core
