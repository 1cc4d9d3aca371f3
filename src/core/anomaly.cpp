#include "core/anomaly.hpp"

#include <algorithm>

#include "core/flow_view.hpp"

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
  // Sums accumulate in dst-row order; unique counts are done by sort-unique
  // over (slot << 32) | value keys instead of per-slot hash sets, which is
  // both faster and order-independent.
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
  constexpr auto kTcp = static_cast<std::uint8_t>(net::Proto::kTcp);

  std::vector<std::uint64_t> src_keys;
  std::vector<std::uint64_t> port_keys;
  const std::size_t rows =
      view.for_each_dst_row(prefix, range, [&](const flow::FlowColumns& cols,
                                               std::size_t i) {
        const auto s =
            static_cast<std::size_t>((cols.time[i] - range.begin) / m.slot);
        if (s >= slots) return;
        packets[s] += static_cast<double>(cols.packets[i]);
        flows_f[s] += 1.0;
        if (cols.proto[i] != kTcp) non_tcp[s] += 1.0;
        src_keys.push_back((std::uint64_t{s} << 32) | cols.src_ip[i]);
        port_keys.push_back((std::uint64_t{s} << 32) | cols.dst_port[i]);
      });

  auto tally_unique = [](std::vector<std::uint64_t>& keys,
                         std::vector<double>& out) {
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i == 0 || keys[i] != keys[i - 1]) {
        out[static_cast<std::size_t>(keys[i] >> 32)] += 1.0;
      }
    }
  };
  tally_unique(src_keys,
               m.series[static_cast<std::size_t>(Feature::kUniqueSources)]);
  tally_unique(port_keys,
               m.series[static_cast<std::size_t>(Feature::kUniqueDstPorts)]);

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
    util::EwmaDetector det(config);
    for (std::size_t s = 0; s < series.size(); ++s) {
      if (det.push(series[s])) ++scan.level[s];
    }
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
