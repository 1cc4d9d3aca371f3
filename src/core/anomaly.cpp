#include "core/anomaly.hpp"

#include <algorithm>

#include "core/flow_view.hpp"
#include "util/distinct.hpp"

namespace bw::core {

std::string_view to_string(Feature f) {
  switch (f) {
    case Feature::kPackets: return "packets";
    case Feature::kFlows: return "flows";
    case Feature::kUniqueSources: return "unique-sources";
    case Feature::kUniqueDstPorts: return "unique-dst-ports";
    case Feature::kNonTcpFlows: return "non-tcp-flows";
  }
  return "unknown";
}

std::size_t FeatureMatrix::slots_with_data() const {
  std::size_t n = 0;
  for (const double v : series[static_cast<std::size_t>(Feature::kPackets)]) {
    if (v > 0.0) ++n;
  }
  return n;
}

FeatureMatrix compute_features(const Dataset& dataset,
                               const net::Prefix& prefix,
                               util::TimeRange range, util::DurationMs slot,
                               KernelEngine) {
  // Sums accumulate in dst-row order; a unique count adds an exact 1.0 per
  // first insert of a (slot << 32) | value key, so row order cannot move it.
  static const KernelScanMetrics metrics = make_kernel_scan_metrics("anomaly");
  const obs::StopWatch watch;
  const FlowView view = dataset.view();

  FeatureMatrix m;
  m.start = range.begin;
  m.slot = std::max<util::DurationMs>(slot, 1);
  const auto slots = static_cast<std::size_t>(
      std::max<util::TimeMs>((range.length() + m.slot - 1) / m.slot, 0));
  for (auto& s : m.series) s.assign(slots, 0.0);
  if (slots == 0) return m;

  auto& packets = m.series[static_cast<std::size_t>(Feature::kPackets)];
  auto& flows_f = m.series[static_cast<std::size_t>(Feature::kFlows)];
  auto& non_tcp = m.series[static_cast<std::size_t>(Feature::kNonTcpFlows)];
  auto& sources = m.series[static_cast<std::size_t>(Feature::kUniqueSources)];
  auto& ports = m.series[static_cast<std::size_t>(Feature::kUniqueDstPorts)];
  constexpr auto kTcp = static_cast<std::uint8_t>(net::Proto::kTcp);

  // Per thread and reused: clear() is O(1) and keeps the grown table.
  thread_local util::DistinctCounter<std::uint64_t> source_keys;
  thread_local util::DistinctCounter<std::uint64_t> port_keys;
  source_keys.clear();
  port_keys.clear();
  const std::size_t rows =
      view.for_each_dst_row(prefix, range, [&](const flow::FlowColumns& cols,
                                               std::size_t i) {
        const auto s =
            static_cast<std::size_t>((cols.time[i] - range.begin) / m.slot);
        if (s >= slots) return;
        packets[s] += static_cast<double>(cols.packets[i]);
        flows_f[s] += 1.0;
        if (cols.proto[i] != kTcp) non_tcp[s] += 1.0;
        const std::uint64_t slot_key = std::uint64_t{s} << 32;
        if (source_keys.insert(slot_key | cols.src_ip[i])) sources[s] += 1.0;
        if (port_keys.insert(slot_key | cols.dst_port[i])) ports[s] += 1.0;
      });

  metrics.rows->add(rows);
  metrics.ns->add(watch.elapsed_ns());
  return m;
}

int AnomalyScan::max_level() const {
  int best = 0;
  for (const int l : level) best = std::max(best, l);
  return best;
}

bool AnomalyScan::any_anomaly_in_last(std::size_t n) const {
  const std::size_t count = std::min(n, level.size());
  for (std::size_t i = 0; i < count; ++i) {
    if (level[level.size() - 1 - i] >= 1) return true;
  }
  return false;
}

AnomalyScan detect_anomalies(const FeatureMatrix& features,
                             util::EwmaConfig config) {
  AnomalyScan scan;
  scan.level.assign(features.slot_count(), 0);
  for (const auto& series : features.series) {
    util::ewma_count_anomalies(series, config, scan.level);
  }
  return scan;
}

AnomalyScan detect_anomalies_cusum(const FeatureMatrix& features,
                                   util::CusumConfig config) {
  AnomalyScan scan;
  scan.level.assign(features.slot_count(), 0);
  for (const auto& series : features.series) {
    util::CusumDetector det(config);
    for (std::size_t s = 0; s < series.size(); ++s) {
      if (det.push(series[s])) ++scan.level[s];
    }
  }
  return scan;
}

}  // namespace bw::core
