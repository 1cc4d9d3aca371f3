// Multi-feature traffic anomaly detection (Section 5.3).
//
// Five features are observed per 5-minute slot for a destination prefix:
// (i) packets, (ii) flows, (iii) unique source IPs, (iv) unique destination
// ports, (v) non-TCP flows. Each feature series runs through the EWMA
// detector (24 h window, 2.5 SD); the per-slot *anomaly level* is the
// number of features anomalous in that slot (0..5).
#pragma once

#include <array>
#include <vector>

#include "core/dataset.hpp"
#include "util/cusum.hpp"
#include "util/ewma.hpp"

namespace bw::core {

inline constexpr std::size_t kFeatureCount = 5;
inline constexpr util::DurationMs kFeatureSlot = 5 * util::kMinute;

enum class Feature : std::uint8_t {
  kPackets = 0,
  kFlows,
  kUniqueSources,
  kUniqueDstPorts,
  kNonTcpFlows,
};

[[nodiscard]] std::string_view to_string(Feature f);

struct FeatureMatrix {
  util::TimeMs start{0};
  util::DurationMs slot{kFeatureSlot};
  /// series[f][s] = value of feature f in slot s.
  std::array<std::vector<double>, kFeatureCount> series;

  [[nodiscard]] std::size_t slot_count() const { return series[0].size(); }
  /// Number of slots with any packet.
  [[nodiscard]] std::size_t slots_with_data() const;
};

/// Build the feature matrix for traffic addressed to `prefix` in `range`.
[[nodiscard]] FeatureMatrix compute_features(
    const Dataset& dataset, const net::Prefix& prefix, util::TimeRange range,
    util::DurationMs slot = kFeatureSlot,
    KernelEngine = KernelEngine::kColumnar);

struct AnomalyScan {
  std::vector<int> level;  ///< per slot: number of anomalous features (0..5)

  [[nodiscard]] int max_level() const;
  /// First slot (from the back) with level >= 1 within the last `n` slots;
  /// -1 when none.
  [[nodiscard]] bool any_anomaly_in_last(std::size_t n) const;
};

/// Run the five EWMA detectors over the matrix. The paper's parameters are
/// the EwmaConfig defaults (window 288, threshold 2.5 SD).
[[nodiscard]] AnomalyScan detect_anomalies(const FeatureMatrix& features,
                                           util::EwmaConfig config = {});

/// Alternative detector for the sensitivity ablation: one-sided CUSUM per
/// feature (accumulates small sustained exceedances the EWMA threshold
/// misses; slightly laggier on sharp bursts).
[[nodiscard]] AnomalyScan detect_anomalies_cusum(const FeatureMatrix& features,
                                                 util::CusumConfig config = {});

}  // namespace bw::core
