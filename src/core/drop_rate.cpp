#include "core/drop_rate.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/flow_view.hpp"
#include "util/arena.hpp"

namespace bw::core {

double DropRateReport::traffic_share(std::uint8_t length) const {
  if (packets_all_lengths == 0) return 0.0;
  for (const auto& s : by_length) {
    if (s.length == length) {
      return static_cast<double>(s.packets_total) /
             static_cast<double>(packets_all_lengths);
    }
  }
  return 0.0;
}

DropEventDelta DropEventTally::delta() const {
  DropEventDelta d;
  d.stats = stats;
  d.ev_total = ev_total;
  d.ev_dropped = ev_dropped;
  d.sources.reserve(sources.size());
  for (const auto& [asn, src] : sources) d.sources.push_back(src);
  return d;
}

DropRateReport compute_drop_rates(const Dataset& dataset,
                                  const std::vector<RtbhEvent>& events,
                                  const DropRateConfig& config,
                                  util::ThreadPool* pool_opt,
                                  const util::Deadline* deadline,
                                  KernelEngine) {
  util::ThreadPool& pool = util::pool_or_global(pool_opt);

  // Per-source accumulation over flat arena arrays indexed by dense member
  // id. Dense ids ascend with ASN (Dataset::source_as), so the emitted
  // source list is in ascending-ASN order, as DropEventTally::delta emits
  // it; the "seen" bitset creates a source entry even for zero-packet
  // records, as DropEventTally::add does.
  const FlowView view = dataset.view();
  const std::size_t n_src = dataset.source_as_count();
  static const KernelScanMetrics metrics = make_kernel_scan_metrics("drop_rate");
  const auto event_delta = [&](std::size_t e) {
    thread_local util::Arena arena;
    arena.reset();
    const auto& ev = events[e];
    DropEventDelta d;
    const std::uint8_t len = ev.prefix.length();
    d.stats.length = len;
    const bool host_event = len == 32;
    std::uint64_t* src_total = nullptr;
    std::uint64_t* src_dropped = nullptr;
    std::uint64_t* seen = nullptr;
    if (host_event && n_src > 0) {
      src_total = arena.alloc_zeroed<std::uint64_t>(n_src);
      src_dropped = arena.alloc_zeroed<std::uint64_t>(n_src);
      seen = arena.alloc_zeroed<std::uint64_t>((n_src + 63) / 64);
    }
    std::uint64_t rows = 0;
    for (const auto& active : ev.active) {
      rows += view.for_each_dst_row(
          ev.prefix, active,
          [&](const flow::FlowColumns& cols, std::size_t i) {
        const std::uint64_t pk = cols.packets[i];
        const std::uint64_t by = cols.bytes[i];
        const bool dropped = cols.dropped(i);
        d.stats.packets_total += pk;
        d.stats.bytes_total += by;
        d.ev_total += pk;
        if (dropped) {
          d.stats.packets_dropped += pk;
          d.stats.bytes_dropped += by;
          d.ev_dropped += pk;
        }
        if (host_event) {
          const std::uint32_t m = cols.src_member[i];
          if (m != flow::FlowColumns::kNoMember) {
            seen[m >> 6] |= std::uint64_t{1} << (m & 63);
            src_total[m] += pk;
            if (dropped) src_dropped[m] += pk;
          }
        }
      });
    }
    if (host_event && n_src > 0) {
      for (std::uint32_t m = 0; m < n_src; ++m) {
        if (((seen[m >> 6] >> (m & 63)) & 1u) == 0) continue;
        SourceAsReaction src;
        src.asn = dataset.source_as(m);
        src.packets_total = src_total[m];
        src.packets_dropped = src_dropped[m];
        d.sources.push_back(src);
      }
    }
    metrics.rows->add(rows);
    return d;
  };

  const obs::StopWatch watch;
  const auto deltas =
      util::parallel_map(pool, events.size(), event_delta, 0, deadline);
  metrics.ns->add(watch.elapsed_ns());
  return assemble_drop_rate_report(deltas, config, dataset.mac_table().size());
}

DropRateReport assemble_drop_rate_report(
    const std::vector<DropEventDelta>& deltas, const DropRateConfig& config,
    std::size_t source_reserve) {
  DropRateReport report;
  // Merge in event order; integer sums make the totals exact and the
  // ordering rules below make the whole report thread-count independent.
  std::map<std::uint8_t, PrefixLenDropStats> by_length;
  std::unordered_map<bgp::Asn, SourceAsReaction> sources32;
  sources32.reserve(source_reserve);
  for (const DropEventDelta& d : deltas) {
    if (d.stats.packets_total > 0) {
      auto& stats = by_length[d.stats.length];
      stats.length = d.stats.length;
      stats.packets_total += d.stats.packets_total;
      stats.packets_dropped += d.stats.packets_dropped;
      stats.bytes_total += d.stats.bytes_total;
      stats.bytes_dropped += d.stats.bytes_dropped;
    }
    for (const SourceAsReaction& s : d.sources) {
      auto& src = sources32[s.asn];
      src.asn = s.asn;
      src.packets_total += s.packets_total;
      src.packets_dropped += s.packets_dropped;
    }
    if (d.ev_total >= config.min_event_samples) {
      const double rate =
          static_cast<double>(d.ev_dropped) / static_cast<double>(d.ev_total);
      if (d.stats.length == 32) report.event_rates_len32.push_back(rate);
      if (d.stats.length == 24) report.event_rates_len24.push_back(rate);
    }
  }

  for (const auto& [len, stats] : by_length) {
    report.by_length.push_back(stats);
    report.packets_all_lengths += stats.packets_total;
    report.bytes_all_lengths += stats.bytes_total;
  }

  report.sources_to_len32.reserve(sources32.size());
  for (const auto& [asn, src] : sources32) {
    report.sources_to_len32.push_back(src);
  }
  // Tie-break on ASN so the order is deterministic however the map
  // iterates.
  std::sort(report.sources_to_len32.begin(), report.sources_to_len32.end(),
            [](const SourceAsReaction& a, const SourceAsReaction& b) {
              if (a.packets_total != b.packets_total) {
                return a.packets_total > b.packets_total;
              }
              return a.asn < b.asn;
            });
  return report;
}

TopSourceSummary summarize_top_sources(const DropRateReport& report,
                                       std::size_t top_n) {
  TopSourceSummary out;
  std::uint64_t total = 0;
  std::uint64_t top_total = 0;
  for (const auto& s : report.sources_to_len32) total += s.packets_total;
  const std::size_t n = std::min(top_n, report.sources_to_len32.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = report.sources_to_len32[i];
    ++out.considered;
    top_total += s.packets_total;
    const double share = s.drop_share();
    if (share > 0.99) ++out.full_droppers;
    else if (share < 0.01) ++out.full_forwarders;
    else ++out.inconsistent;
  }
  out.traffic_share_of_total =
      total > 0 ? static_cast<double>(top_total) / static_cast<double>(total)
                : 0.0;
  return out;
}

std::vector<TypedReaction> type_top_sources(const DropRateReport& report,
                                            const pdb::Registry& registry,
                                            std::size_t top_n) {
  std::map<pdb::OrgType, TypedReaction> by_type;
  const std::size_t n = std::min(top_n, report.sources_to_len32.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = report.sources_to_len32[i];
    const pdb::OrgType type = registry.type_of(s.asn);
    auto& t = by_type[type];
    t.type = type;
    if (s.drop_share() > 0.99) ++t.droppers;
    else ++t.others;
  }
  std::vector<TypedReaction> out;
  out.reserve(by_type.size());
  for (const auto& [type, t] : by_type) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const TypedReaction& a,
                                       const TypedReaction& b) {
    return a.droppers + a.others > b.droppers + b.others;
  });
  return out;
}

}  // namespace bw::core
