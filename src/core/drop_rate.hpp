// RTBH acceptance analysis (Section 4.2, Figs. 5-8).
//
// How much of the traffic addressed to an active blackhole actually gets
// dropped? Broken down by RTBH prefix length (Fig. 5), as per-event
// drop-rate distributions for /24 vs /32 (Fig. 6), and by traffic source:
// the top source ASes' reactions to /32 blackholes (Fig. 7) and their
// PeeringDB organisation types (Fig. 8).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/dataset.hpp"
#include "core/event_merge.hpp"
#include "peeringdb/registry.hpp"
#include "util/parallel.hpp"

namespace bw::core {

struct PrefixLenDropStats {
  std::uint8_t length{0};
  std::uint64_t packets_total{0};
  std::uint64_t packets_dropped{0};
  std::uint64_t bytes_total{0};
  std::uint64_t bytes_dropped{0};

  [[nodiscard]] double packet_drop_rate() const {
    return packets_total > 0
               ? static_cast<double>(packets_dropped) /
                     static_cast<double>(packets_total)
               : 0.0;
  }
  [[nodiscard]] double byte_drop_rate() const {
    return bytes_total > 0 ? static_cast<double>(bytes_dropped) /
                                 static_cast<double>(bytes_total)
                           : 0.0;
  }
};

struct SourceAsReaction {
  bgp::Asn asn{0};
  std::uint64_t packets_total{0};
  std::uint64_t packets_dropped{0};

  [[nodiscard]] double drop_share() const {
    return packets_total > 0
               ? static_cast<double>(packets_dropped) /
                     static_cast<double>(packets_total)
               : 0.0;
  }
};

struct DropRateReport {
  /// Per prefix length (only lengths with observed traffic).
  std::vector<PrefixLenDropStats> by_length;
  std::uint64_t packets_all_lengths{0};
  std::uint64_t bytes_all_lengths{0};

  /// Per-event packet drop rates for the Fig. 6 CDFs (events with >= the
  /// minimum sample count only).
  std::vector<double> event_rates_len32;
  std::vector<double> event_rates_len24;

  /// Source (handover) ASes of traffic towards active /32 blackholes,
  /// sorted by descending total volume (Fig. 7 takes the top 100).
  std::vector<SourceAsReaction> sources_to_len32;

  /// Traffic share of a length (opacity axis of Fig. 5).
  [[nodiscard]] double traffic_share(std::uint8_t length) const;
};

struct DropRateConfig {
  /// Minimum sampled packets addressed to an event for its drop rate to
  /// enter the Fig. 6 distributions (guards against 1-sample rates).
  std::uint64_t min_event_samples{5};
};

/// Everything one event contributes to the report, computed independently
/// per event and merged in event order by assemble_drop_rate_report.
struct DropEventDelta {
  PrefixLenDropStats stats;
  std::uint64_t ev_total{0};
  std::uint64_t ev_dropped{0};
  /// Per handover AS of traffic towards a /32 event, sorted by ASN.
  std::vector<SourceAsReaction> sources;
};

/// Per-event accumulation of the streaming incremental kernel, also fed by
/// the naive reference kernels in tests/core/reference_kernels.cpp: same
/// add() per record, same flatten. A source entry is created for *every*
/// attributed record from a known member — even a zero-packet one — which
/// the batch kernel's "seen" bitset reproduces.
struct DropEventTally {
  PrefixLenDropStats stats;
  std::uint64_t ev_total{0};
  std::uint64_t ev_dropped{0};
  bool host_event{false};  ///< /32 events track per-source reactions
  std::map<bgp::Asn, SourceAsReaction> sources;

  void init(std::uint8_t length) {
    stats.length = length;
    host_event = length == 32;
  }

  void add(std::uint64_t packets, std::uint64_t bytes, bool dropped,
           const std::optional<bgp::Asn>& src_asn) {
    stats.packets_total += packets;
    stats.bytes_total += bytes;
    ev_total += packets;
    if (dropped) {
      stats.packets_dropped += packets;
      stats.bytes_dropped += bytes;
      ev_dropped += packets;
    }
    if (host_event && src_asn) {
      auto& src = sources[*src_asn];
      src.asn = *src_asn;
      src.packets_total += packets;
      if (dropped) src.packets_dropped += packets;
    }
  }

  /// Flatten into the merge-ready delta (sources in ascending-ASN order,
  /// exactly the map's iteration order).
  [[nodiscard]] DropEventDelta delta() const;
};

/// Merge per-event deltas — in event order — into the final report: the
/// by-length totals, the Fig. 6 per-event rate distributions and the
/// sorted /32 source list. Shared by the batch kernel and the streaming
/// incremental kernel so a rolling snapshot's drop section is assembled by
/// the same code as the batch report's. `source_reserve` pre-sizes the
/// source merge map (pass the member-table size when known).
[[nodiscard]] DropRateReport assemble_drop_rate_report(
    const std::vector<DropEventDelta>& deltas, const DropRateConfig& config,
    std::size_t source_reserve = 0);

/// Events fan out over `pool` (null: the global pool); per-event deltas
/// are merged in event order and the source list is sorted with a full
/// tie-break, so the report is identical at any thread count.
/// A non-null `deadline` is polled per chunk (cooperative supervision).
[[nodiscard]] DropRateReport compute_drop_rates(
    const Dataset& dataset, const std::vector<RtbhEvent>& events,
    const DropRateConfig& config = {}, util::ThreadPool* pool = nullptr,
    const util::Deadline* deadline = nullptr,
    KernelEngine = KernelEngine::kColumnar);

/// Fig. 7 summary: of the top `top_n` sources, how many drop > 99%, how
/// many forward > 99%, and how many do both (inconsistent).
struct TopSourceSummary {
  std::size_t considered{0};
  std::size_t full_droppers{0};    ///< drop share > 0.99
  std::size_t full_forwarders{0};  ///< drop share < 0.01
  std::size_t inconsistent{0};     ///< everything in between
  double traffic_share_of_total{0.0};
};

[[nodiscard]] TopSourceSummary summarize_top_sources(
    const DropRateReport& report, std::size_t top_n = 100);

/// Fig. 8: PeeringDB org-type counts of the top `top_n` sources, split by
/// acceptance behaviour ("drops" vs "forwards or partial").
struct TypedReaction {
  pdb::OrgType type{pdb::OrgType::kUnknown};
  std::size_t droppers{0};
  std::size_t others{0};
};

[[nodiscard]] std::vector<TypedReaction> type_top_sources(
    const DropRateReport& report, const pdb::Registry& registry,
    std::size_t top_n = 100);

}  // namespace bw::core
