#include "core/pre_rtbh.hpp"

#include <algorithm>

namespace bw::core {

PreRtbhReport compute_pre_rtbh(const Dataset& dataset,
                               const std::vector<RtbhEvent>& events,
                               const PreRtbhConfig& config,
                               util::ThreadPool* pool_opt,
                               const util::Deadline* deadline,
                               KernelEngine) {
  util::ThreadPool& pool = util::pool_or_global(pool_opt);
  PreRtbhReport report;

  const auto slots_10min =
      static_cast<std::size_t>(std::max<util::DurationMs>(
          (10 * util::kMinute + config.slot - 1) / config.slot, 1));
  const auto slots_1h = static_cast<std::size_t>(std::max<util::DurationMs>(
      (util::kHour + config.slot - 1) / config.slot, 1));

  // Each pre-RTBH event is independent: fan the events out over the pool
  // and collect the per-event results in index order.
  report.per_event = util::parallel_map(pool, events.size(), [&](std::size_t e) {
    const auto& ev = events[e];
    PreRtbhResult res;
    res.event_index = e;

    util::TimeRange window{ev.span.begin - config.window, ev.span.begin};
    // Clamp to the measurement period (events early in the period have a
    // shorter history; the EWMA full-window rule handles the rest).
    window.begin = std::max(window.begin, dataset.period().begin);

    const FeatureMatrix features =
        compute_features(dataset, ev.prefix, window, config.slot);
    res.slots_with_data = features.slots_with_data();
    res.has_data = res.slots_with_data > 0;

    if (res.has_data) {
      const AnomalyScan scan =
          config.detector == PreRtbhConfig::Detector::kCusum
              ? detect_anomalies_cusum(features, config.cusum)
              : detect_anomalies(features, config.ewma);
      res.max_level = scan.max_level();
      res.anomaly_within_10min = scan.any_anomaly_in_last(slots_10min);
      res.anomaly_within_1h = scan.any_anomaly_in_last(slots_1h);
      const auto n = static_cast<int>(scan.level.size());
      for (int s = 0; s < n; ++s) {
        if (scan.level[static_cast<std::size_t>(s)] >= 1) {
          res.anomalies.emplace_back(s - n,
                                     scan.level[static_cast<std::size_t>(s)]);
        }
      }

      // Anomaly amplification factor: last slot vs pre-event mean.
      if (features.slot_count() > 0) {
        const std::size_t last = features.slot_count() - 1;
        const auto& pk =
            features.series[static_cast<std::size_t>(Feature::kPackets)];
        res.last_slot_has_data = pk[last] > 0.0;
        res.last_slot_is_max =
            res.last_slot_has_data &&
            pk[last] >= *std::max_element(pk.begin(), pk.end());
        for (std::size_t f = 0; f < kFeatureCount; ++f) {
          const auto& series = features.series[f];
          double mean = 0.0;
          for (const double v : series) mean += v;
          mean /= static_cast<double>(series.size());
          res.amplification[f] = mean > 0.0 ? series[last] / mean : 0.0;
        }
      }
    }
    return res;
  }, 0, deadline);

  // Tally the Table 2 classes serially, in event order.
  for (const PreRtbhResult& res : report.per_event) {
    if (!res.has_data) ++report.no_data;
    else if (res.anomaly_within_10min) ++report.data_anomaly_10m;
    else ++report.data_no_anomaly;
    if (res.has_data && res.anomaly_within_1h) ++report.anomaly_1h;
  }
  return report;
}

}  // namespace bw::core
