// Final RTBH event use-case classification (Section 7.3, Fig. 19; built on
// the expected characteristics of Table 1).
//
// Classes assigned per merged event, in priority order:
//   squatting-candidate   prefix <= /24 and RTBH active for months
//   infrastructure        preceding traffic anomaly within 10 minutes
//   zombie-candidate      long-lasting /32 with fewer than 10 sampled
//                         packets — likely once triggered, then forgotten
//                         (the paper's 13%-of-total suspects; some stay
//                         active through the complete measurement period)
//   other                 everything else (the paper's sobering 60%)
#pragma once

#include <string_view>
#include <vector>

#include "core/event_merge.hpp"
#include "core/pre_rtbh.hpp"

namespace bw::core {

enum class EventClass : std::uint8_t {
  kInfrastructureProtection,
  kSquattingCandidate,
  kZombieCandidate,
  kOther,
};

[[nodiscard]] std::string_view to_string(EventClass c);

struct ClassifiedEvent {
  std::size_t event_index{0};
  EventClass cls{EventClass::kOther};
  util::DurationMs duration{0};
  std::uint64_t sampled_packets{0};
};

struct ClassificationReport {
  std::vector<ClassifiedEvent> events;
  std::size_t infrastructure{0};
  std::size_t squatting{0};
  std::size_t squatting_prefixes{0};
  std::size_t squatting_origin_as{0};
  std::size_t zombies{0};
  /// Of the zombie candidates: those still active at the period end.
  std::size_t zombies_until_period_end{0};
  std::size_t other{0};
  /// Of the "other" /32 events: short-lived ones with < 10 sampled packets.
  std::size_t other_len32_low_traffic{0};

  [[nodiscard]] std::size_t total() const { return events.size(); }
};

struct ClassifyConfig {
  util::DurationMs squatting_min_duration{30 * util::kDay};
  /// Minimum duration for a low-traffic /32 to count as a zombie suspect.
  util::DurationMs zombie_min_duration{2 * util::kDay};
  /// Slack when testing whether a zombie reaches the period end.
  util::DurationMs zombie_end_slack{util::kDay};
  std::uint64_t low_traffic_packets{10};
};

[[nodiscard]] ClassificationReport classify_events(
    const Dataset& dataset, const std::vector<RtbhEvent>& events,
    const PreRtbhReport& pre, const ClassifyConfig& config = {},
    KernelEngine = KernelEngine::kColumnar);

}  // namespace bw::core
