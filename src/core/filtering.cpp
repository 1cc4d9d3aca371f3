#include "core/filtering.hpp"

#include "core/flow_view.hpp"
#include "net/ports.hpp"

namespace bw::core {

FilteringReport compute_filtering(const Dataset& dataset,
                                  const std::vector<RtbhEvent>& events,
                                  const PreRtbhReport& pre,
                                  double full_threshold,
                                  KernelEngine) {
  FilteringReport report;
  report.threshold = full_threshold;

  const FlowView view = dataset.view();
  constexpr auto kUdp = static_cast<std::uint8_t>(net::Proto::kUdp);
  static const KernelScanMetrics metrics = make_kernel_scan_metrics("filtering");
  const obs::StopWatch watch;
  std::uint64_t rows = 0;

  for (std::size_t e = 0; e < events.size(); ++e) {
    if (e >= pre.per_event.size() || !pre.per_event[e].anomaly_within_10min) {
      continue;
    }
    const auto& ev = events[e];
    std::uint64_t total = 0;
    std::uint64_t matched = 0;
    rows += view.for_each_dst_row(
        ev.prefix, ev.span, [&](const flow::FlowColumns& cols, std::size_t i) {
          const std::uint64_t pk = cols.packets[i];
          total += pk;
          if (cols.proto[i] == kUdp &&
              net::amplification_port_index(cols.src_port[i]) !=
                  net::kNoAmplificationPort) {
            matched += pk;
          }
        });
    if (total == 0) continue;
    ++report.events_considered;
    report.coverage.push_back(static_cast<double>(matched) /
                              static_cast<double>(total));
  }
  metrics.rows->add(rows);
  metrics.ns->add(watch.elapsed_ns());

  if (!report.coverage.empty()) {
    std::size_t full = 0;
    for (const double c : report.coverage) {
      if (c >= full_threshold) ++full;
    }
    report.fully_filterable_fraction =
        static_cast<double>(full) / static_cast<double>(report.coverage.size());
  }
  return report;
}

}  // namespace bw::core
