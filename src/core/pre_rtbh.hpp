// Pre-RTBH event analysis (Sections 5.2-5.3; Figs. 11-13, Table 2).
//
// For each merged RTBH event, the 72 hours before the first announcement
// (the *pre-RTBH event*) are scanned for traffic and anomalies, yielding
// the three-way classification of Table 2: (i) no sampled traffic at all,
// (ii) traffic but no anomaly within 10 minutes of the event, (iii) traffic
// and a preceding anomaly.
#pragma once

#include <array>
#include <vector>

#include "core/anomaly.hpp"
#include "core/event_merge.hpp"
#include "util/parallel.hpp"

namespace bw::core {

inline constexpr util::DurationMs kPreWindow = 72 * util::kHour;

struct PreRtbhResult {
  std::size_t event_index{0};
  bool has_data{false};
  std::size_t slots_with_data{0};
  bool anomaly_within_10min{false};
  bool anomaly_within_1h{false};
  int max_level{0};
  /// (slot offset relative to event start, level) of each anomalous slot;
  /// offsets are negative slot counts (Fig. 12's x axis).
  std::vector<std::pair<int, int>> anomalies;
  /// Per feature: last-slot value / mean over the pre-window (Fig. 13's
  /// Anomaly Amplification Factor); 0 when the last slot is empty.
  std::array<double, kFeatureCount> amplification{};
  bool last_slot_has_data{false};
  bool last_slot_is_max{false};  ///< last slot is the packet-feature max
};

struct PreRtbhReport {
  std::vector<PreRtbhResult> per_event;
  std::size_t no_data{0};
  std::size_t data_no_anomaly{0};   ///< data, no anomaly within 10 min
  std::size_t data_anomaly_10m{0};  ///< data + anomaly within 10 min
  std::size_t anomaly_1h{0};        ///< data + anomaly within 1 h

  [[nodiscard]] std::size_t total() const { return per_event.size(); }
};

struct PreRtbhConfig {
  util::DurationMs window{kPreWindow};
  util::DurationMs slot{kFeatureSlot};
  /// Detector choice; the paper uses EWMA (Section 5.3), CUSUM is the
  /// ablation alternative.
  enum class Detector : std::uint8_t { kEwma, kCusum } detector{Detector::kEwma};
  util::EwmaConfig ewma{};
  util::CusumConfig cusum{};
};

/// Events fan out over `pool` (null: the global pool); per-event results
/// land in index order, so the report is identical at any thread count.
/// A non-null `deadline` is polled per chunk (cooperative supervision).
[[nodiscard]] PreRtbhReport compute_pre_rtbh(
    const Dataset& dataset, const std::vector<RtbhEvent>& events,
    const PreRtbhConfig& config = {}, util::ThreadPool* pool = nullptr,
    const util::Deadline* deadline = nullptr,
    KernelEngine = KernelEngine::kColumnar);

}  // namespace bw::core
