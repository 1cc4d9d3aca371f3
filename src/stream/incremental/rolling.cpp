#include "stream/incremental/rolling.hpp"

#include <charconv>
#include <concepts>
#include <ostream>
#include <string_view>

#include "obs/metrics.hpp"

namespace bw::stream::incremental {

namespace {

/// Appends JSON text to a caller-owned string with std::to_chars: no
/// stream, no locale, no per-field allocation. Numbers render byte for
/// byte as `ostream << setprecision(17)` renders them, the format the
/// rolling files and their pinned digests are defined in.
class JsonOut {
 public:
  explicit JsonOut(std::string& out) : out_(out) {}

  JsonOut& operator<<(std::string_view text) {
    out_.append(text);
    return *this;
  }

  /// Decimal integers. Character types are excluded: ostream would print
  /// them as characters, so callers cast to unsigned first.
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char> &&
             !std::same_as<T, signed char> && !std::same_as<T, unsigned char>)
  JsonOut& operator<<(T v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, r.ptr);
    return *this;
  }

  /// `%.17g`, i.e. `ostream << setprecision(17)`: 17 significant digits,
  /// which round-trips every double but is not the shortest form (0.1
  /// prints as 0.10000000000000001). The figures must be byte-stable
  /// between the rolling and batch renderers, which both funnel through
  /// here with bit-identical inputs (shared accumulators guarantee that).
  JsonOut& operator<<(double v) {
    char buf[32];
    const auto r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
    out_.append(buf, r.ptr);
    return *this;
  }

 private:
  std::string& out_;
};

void append_drop(JsonOut& os, const core::DropRateReport& r) {
  os << "{\"packets_all\":" << r.packets_all_lengths
     << ",\"bytes_all\":" << r.bytes_all_lengths << ",\"by_length\":[";
  for (std::size_t i = 0; i < r.by_length.size(); ++i) {
    const auto& s = r.by_length[i];
    os << (i ? "," : "") << "{\"len\":" << static_cast<unsigned>(s.length)
       << ",\"packets\":" << s.packets_total
       << ",\"dropped\":" << s.packets_dropped
       << ",\"bytes\":" << s.bytes_total
       << ",\"bytes_dropped\":" << s.bytes_dropped << "}";
  }
  os << "],\"rates_len32\":[";
  for (std::size_t i = 0; i < r.event_rates_len32.size(); ++i) {
    os << (i ? "," : "") << r.event_rates_len32[i];
  }
  os << "],\"rates_len24\":[";
  for (std::size_t i = 0; i < r.event_rates_len24.size(); ++i) {
    os << (i ? "," : "") << r.event_rates_len24[i];
  }
  os << "],\"sources_len32\":[";
  for (std::size_t i = 0; i < r.sources_to_len32.size(); ++i) {
    const auto& s = r.sources_to_len32[i];
    os << (i ? "," : "") << "{\"asn\":" << s.asn
       << ",\"packets\":" << s.packets_total
       << ",\"dropped\":" << s.packets_dropped << "}";
  }
  os << "]}";
}

void append_ports(JsonOut& os, const core::PortStatsReport& r) {
  os << "{\"blackholed_hosts\":" << r.blackholed_hosts_total
     << ",\"eligible\":" << r.eligible_hosts << ",\"clients\":" << r.clients
     << ",\"servers\":" << r.servers << ",\"hosts\":[";
  for (std::size_t i = 0; i < r.hosts.size(); ++i) {
    const auto& h = r.hosts[i];
    os << (i ? "," : "") << "{\"ip\":\"" << h.ip.to_string() << "\",\"origin\":";
    if (h.origin) os << *h.origin;
    else os << "null";
    os << ",\"src_in\":" << h.unique_src_ports_in
       << ",\"dst_in\":" << h.unique_dst_ports_in
       << ",\"src_out\":" << h.unique_src_ports_out
       << ",\"dst_out\":" << h.unique_dst_ports_out
       << ",\"days_in\":" << h.days_with_inbound
       << ",\"days_out\":" << h.days_with_outbound
       << ",\"days_bidir\":" << h.days_bidirectional << ",\"top_ports\":[";
    for (std::size_t j = 0; j < h.top_ports.size(); ++j) {
      os << (j ? "," : "") << "[" << static_cast<unsigned>(h.top_ports[j].proto)
         << "," << h.top_ports[j].port << "]";
    }
    os << "],\"variation\":" << h.port_variation << ",\"class\":\""
       << core::to_string(h.classification) << "\"}";
  }
  os << "]}";
}

void append_collateral(JsonOut& os, const core::CollateralReport& r) {
  os << "{\"servers_considered\":" << r.servers_considered
     << ",\"top_port_packets\":" << r.total_top_port_packets
     << ",\"dropped_packets\":" << r.total_dropped_packets << ",\"rows\":[";
  for (std::size_t i = 0; i < r.events.size(); ++i) {
    const auto& e = r.events[i];
    os << (i ? "," : "") << "{\"server\":\"" << e.server.to_string()
       << "\",\"event\":" << e.event_index
       << ",\"packets\":" << e.packets_to_top_ports
       << ",\"dropped\":" << e.packets_actually_dropped
       << ",\"est_original\":" << e.est_original_packets << "}";
  }
  os << "]}";
}

/// The figures object in two pieces, the drop half's and the commit
/// half's: `{"drop":..` and `,"ports":..,"collateral":..}`.
void append_figures_drop(JsonOut& os, const core::DropRateReport& drop) {
  os << "{\"drop\":";
  append_drop(os, drop);
}

void append_figures_rest(JsonOut& os, const core::PortStatsReport& ports,
                         const core::CollateralReport& collateral) {
  os << ",\"ports\":";
  append_ports(os, ports);
  os << ",\"collateral\":";
  append_collateral(os, collateral);
  os << "}";
}

}  // namespace

std::string RollingReporter::figures_json(
    const core::DropRateReport& drop, const core::PortStatsReport& ports,
    const core::CollateralReport& collateral) {
  std::string text;
  JsonOut os(text);
  append_figures_drop(os, drop);
  append_figures_rest(os, ports, collateral);
  return text;
}

RollingReporter::RollingReporter(RollingConfig config)
    : cfg_(std::move(config)), drop_(cfg_.kernels), commit_(cfg_.kernels) {
  if (!cfg_.out_path.empty()) out_.emplace(cfg_.out_path);
}

void RollingReporter::on_event(const StreamEvent& ev) {
  on_event(Half::kDrop, ev);
  on_event(Half::kCommit, ev);
}

void RollingReporter::on_event(Half half, const StreamEvent& ev) {
  if (half == Half::kDrop) drop_.on_event(ev);
  else commit_.on_event(ev);
  if (cfg_.report_every <= 0) return;
  std::optional<util::TimeMs>& next = next_emit_[static_cast<std::size_t>(half)];
  if (!next) {
    next = ev.time + cfg_.report_every;
    return;
  }
  // Delivery is watermark-ordered, so event time is non-decreasing; one
  // event can cross several boundaries after a quiet stretch, but each
  // boundary emits at most once (the loop advances past ev.time).
  for (; ev.time >= *next; *next += cfg_.report_every) emit(half, false);
}

util::Status RollingReporter::finish(util::TimeMs period_end) {
  if (finished_) return util::Status();
  finished_ = true;
  drop_.finish(period_end);
  commit_.finish(period_end);
  emit(Half::kDrop, true);
  emit(Half::kCommit, true);
  return out_ ? out_->commit() : util::Status();
}

void RollingReporter::emit(Half half, bool final_report) {
  static obs::Counter& snapshot_us =
      obs::Registry::global().counter("stream.kernel.snapshot_us");
  static obs::Counter& snapshots =
      obs::Registry::global().counter("stream.kernel.snapshots");
  static obs::Counter& snapshot_bytes =
      obs::Registry::global().counter("stream.kernel.snapshot_bytes");
  const obs::StopWatch watch;
  Parts parts =
      half == Half::kDrop ? render_drop(final_report) : render_commit();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    parts_[static_cast<std::size_t>(half)].push_back(std::move(parts));
    for (auto& [drop, commit] = parts_; !drop.empty() && !commit.empty();
         drop.pop_front(), commit.pop_front()) {
      std::string line = std::move(drop.front()[0]) + commit.front()[0] +
                         drop.front()[1] + commit.front()[1];
      ++stitched_;
      snapshots.add();
      snapshot_bytes.add(line.size());
      if (out_) out_->stream() << line << '\n';
      else lines_.push_back(std::move(line));
    }
  }
  snapshot_us.add(watch.elapsed_us());
}

RollingReporter::Parts RollingReporter::render_drop(bool final_report) {
  IncrementalSnapshot snap;
  drop_.snapshot(snap, cfg_.topk_k);
  const std::vector<TopKPorts::Entry>& top = snap.top_ports;
  const double stability =
      drop_lines_ == 0 ? 1.0 : topk_stability(last_top_, top);

  Parts parts;
  JsonOut head(parts[0]);
  head << "{\"snapshot\":" << drop_lines_++
       << ",\"final\":" << (final_report ? "true" : "false")
       << ",\"clock\":" << snap.clock << ",\"events\":" << snap.events_seen
       << ",\"bgp\":" << snap.bgp_seen << ",\"flows\":" << snap.flows_seen;
  parts[1].reserve(reserve_[0]);
  JsonOut os(parts[1]);
  os << ",\"rtbh_events\":" << snap.rtbh_events
     << ",\"open_rtbh_events\":" << snap.open_rtbh_events
     << ",\"topk_total\":" << snap.topk_total
     << ",\"topk_max_error\":" << snap.topk_max_error << ",\"topk\":[";
  for (std::size_t i = 0; i < top.size(); ++i) {
    os << (i ? "," : "") << "{\"proto\":" << static_cast<unsigned>(top[i].pp.proto)
       << ",\"port\":" << top[i].pp.port << ",\"count\":" << top[i].count
       << ",\"err\":" << top[i].err << "}";
  }
  os << "],\"topk_stability\":" << stability << ",\"figures\":";
  append_figures_drop(os, snap.drop);
  reserve_[0] = parts[1].size() + 4096;
  last_top_ = std::move(snap.top_ports);
  return parts;
}

RollingReporter::Parts RollingReporter::render_commit() {
  IncrementalSnapshot snap;
  commit_.snapshot(snap);
  Parts parts;
  JsonOut head(parts[0]);
  head << ",\"committed\":" << snap.flows_committed
       << ",\"pending\":" << snap.flows_pending;
  parts[1].reserve(reserve_[1]);
  JsonOut os(parts[1]);
  append_figures_rest(os, snap.ports, snap.collateral);
  os << "}";
  reserve_[1] = parts[1].size() + 4096;
  return parts;
}

}  // namespace bw::stream::incremental
