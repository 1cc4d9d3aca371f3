// Attack-source participation analysis (Section 5.5, Fig. 15).
//
// Because reflection traffic is unspoofed, both the *origin AS* of each
// amplifier (via BGP prefix attribution) and the *handover AS* (the member
// whose port the traffic entered, via MAC attribution — spoofing-proof) can
// be determined. This module derives, per AS, the share of amplification
// attacks it participated in, plus the per-attack averages the paper
// reports (1,086 amplifiers, 30 handover ASes, 73 origin ASes).
#pragma once

#include <vector>

#include "core/event_merge.hpp"
#include "core/pre_rtbh.hpp"

namespace bw::core {

struct AsParticipation {
  bgp::Asn asn{0};
  std::size_t events{0};          ///< attacks this AS participated in
  double event_share{0.0};        ///< events / total amplification attacks
  std::uint64_t packets{0};
  double traffic_share{0.0};
};

struct ParticipationReport {
  std::size_t attacks{0};  ///< amplification attacks considered
  /// Sorted by descending event share, tied shares by ascending ASN.
  std::vector<AsParticipation> handover;
  std::vector<AsParticipation> origins;
  double avg_amplifiers_per_attack{0.0};
  double avg_handover_per_attack{0.0};
  double avg_origins_per_attack{0.0};
};

/// Over the attack-correlated events (preceding anomaly within 10 minutes)
/// that carry amplification traffic.
[[nodiscard]] ParticipationReport compute_participation(
    const Dataset& dataset, const std::vector<RtbhEvent>& events,
    const PreRtbhReport& pre);

}  // namespace bw::core
