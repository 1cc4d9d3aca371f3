// Mitigation-strategy what-if comparison.
//
// The paper's discussion (Sections 2, 5.5, 7) weighs RTBH against the
// finer-grained alternatives operators could deploy: targeted blackhole
// announcements, BGP FlowSpec-style transport filters, and "advanced
// blackholing" at the IXP platform (Stellar). This module replays each
// strategy over the attack-correlated RTBH events of a corpus and reports
// the efficacy/collateral trade-off per strategy:
//
//   rtbh-observed    what actually happened (per-peer acceptance as-is)
//   rtbh-perfect     every peer accepts: all traffic to the victim dies
//   rtbh-targeted    blackhole only towards peers carrying attack traffic
//   flowspec-ports   drop only UDP packets from known amplification ports
//   advanced-bh      IXP-side filter: amplification ports plus UDP to
//                    unserviced high ports (carpet floods), TCP untouched
//
// Packets are labelled attack/legitimate with a transport-layer heuristic
// (the analysis has no payloads and no ground truth, as in the paper):
// UDP from an amplification port, or UDP to an ephemeral (>= 1024) port
// during the event, counts as attack; the rest as legitimate.
#pragma once

#include <array>
#include <string_view>

#include "core/event_merge.hpp"
#include "core/pre_rtbh.hpp"

namespace bw::core {

enum class Strategy : std::uint8_t {
  kRtbhObserved = 0,
  kRtbhPerfect,
  kRtbhTargeted,
  kFlowspecAmpPorts,
  kAdvancedBlackholing,
};

inline constexpr std::size_t kStrategyCount = 5;

[[nodiscard]] std::string_view to_string(Strategy s);

struct StrategyOutcome {
  Strategy strategy{Strategy::kRtbhObserved};
  std::uint64_t attack_packets{0};
  std::uint64_t attack_dropped{0};
  std::uint64_t legit_packets{0};
  std::uint64_t legit_dropped{0};

  /// Share of attack packets removed.
  [[nodiscard]] double efficacy() const {
    return attack_packets > 0 ? static_cast<double>(attack_dropped) /
                                    static_cast<double>(attack_packets)
                              : 0.0;
  }
  /// Share of legitimate packets removed (collateral damage).
  [[nodiscard]] double collateral() const {
    return legit_packets > 0 ? static_cast<double>(legit_dropped) /
                                   static_cast<double>(legit_packets)
                             : 0.0;
  }
};

struct WhatIfReport {
  std::array<StrategyOutcome, kStrategyCount> outcomes{};
  std::size_t events_considered{0};
};

/// Evaluate all strategies over the attack-correlated events (preceding
/// anomaly within 10 minutes) of the corpus, one event per task over
/// `pool` (null: the global pool); the report is the same at any thread
/// count.
[[nodiscard]] WhatIfReport compute_whatif(const Dataset& dataset,
                                          const std::vector<RtbhEvent>& events,
                                          const PreRtbhReport& pre,
                                          util::ThreadPool* pool = nullptr);

}  // namespace bw::core
