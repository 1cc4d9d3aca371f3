// Attack-traffic protocol mix (Section 5.4, Table 3).
//
// For RTBH events with a preceding anomaly *and* sampled traffic during the
// event, this derives the transport-protocol distribution (99.5% UDP in the
// paper) and the number of distinct UDP amplification protocols per event.
// Per the paper, analysis keys on transport ports only — payload is never
// available.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/event_merge.hpp"
#include "core/pre_rtbh.hpp"

namespace bw::core {

struct ProtocolMixReport {
  std::size_t events_considered{0};  ///< anomaly + data during event
  std::uint64_t packets_total{0};
  double udp_share{0.0};
  double tcp_share{0.0};
  double icmp_share{0.0};
  double other_share{0.0};

  /// hist[k] = number of events with exactly k distinct amplification
  /// protocols (Table 3's columns; k capped at 5+).
  std::array<std::size_t, 6> amp_protocol_events{};

  /// Events per amplification protocol name, descending.
  std::vector<std::pair<std::string, std::size_t>> protocol_event_counts;

  [[nodiscard]] double amp_event_fraction(std::size_t k) const {
    return events_considered > 0 ? static_cast<double>(amp_protocol_events[k]) /
                                       static_cast<double>(events_considered)
                                 : 0.0;
  }
};

struct ProtocolMixConfig {
  /// A protocol counts for an event when it carries at least this share of
  /// the event's packets and at least `min_packets` samples (guards against
  /// single stray legitimate packets on service ports).
  double min_share{0.01};
  std::uint32_t min_packets{2};
};

[[nodiscard]] ProtocolMixReport compute_protocol_mix(
    const Dataset& dataset, const std::vector<RtbhEvent>& events,
    const PreRtbhReport& pre, const ProtocolMixConfig& config = {},
    KernelEngine = KernelEngine::kColumnar);

}  // namespace bw::core
