#include "core/time_offset.hpp"

#include <algorithm>

namespace bw::core {

OffsetEstimate estimate_offset(const Dataset& dataset,
                               const OffsetConfig& config) {
  OffsetEstimate est;
  const util::DurationMs step = std::max<util::DurationMs>(config.step, 1);
  const auto bins = static_cast<std::size_t>(
      (config.max_offset - config.min_offset) / step + 1);

  // Gather dropped samples in time order (optionally uniformly
  // subsampled).
  const flow::TimeOrderView flows = dataset.flows();
  std::vector<std::size_t> dropped;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].dropped()) dropped.push_back(i);
  }
  est.dropped_samples = dropped.size();
  std::size_t stride = 1;
  if (config.max_samples > 0 && dropped.size() > config.max_samples) {
    stride = dropped.size() / config.max_samples + 1;
  }

  // For each sample, the candidate offsets that explain it form the union
  // of intervals [span.begin - t, span.end - t). Accumulate them on the
  // grid as +1/-1 differences — O(samples), independent of grid size.
  std::vector<double> diff(bins + 1, 0.0);
  std::size_t used = 0;
  for (std::size_t k = 0; k < dropped.size(); k += stride) {
    const flow::FlowRecord rec = flows[dropped[k]];
    ++used;
    for (const auto& range : dataset.rs_index().announced_ranges(rec.dst_ip)) {
      const util::DurationMs lo = range.begin - rec.time;
      const util::DurationMs hi = range.end - rec.time;
      if (hi <= config.min_offset || lo > config.max_offset) continue;
      const auto lo_bin = static_cast<std::size_t>(
          std::max<util::DurationMs>(lo - config.min_offset + step - 1, 0) /
          step);
      const auto hi_bin = std::min<std::size_t>(
          static_cast<std::size_t>(
              std::max<util::DurationMs>(hi - config.min_offset + step - 1, 0) /
              step),
          bins);
      if (lo_bin >= hi_bin) continue;
      diff[lo_bin] += 1.0;
      diff[hi_bin] -= 1.0;
    }
  }

  est.curve.reserve(bins);
  double acc = 0.0;
  const double denom = used > 0 ? static_cast<double>(used) : 1.0;
  for (std::size_t b = 0; b < bins; ++b) {
    acc += diff[b];
    OffsetPoint p;
    p.offset = config.min_offset + static_cast<util::DurationMs>(b) * step;
    p.overlap = std::min(acc / denom, 1.0);
    est.curve.push_back(p);
    if (p.overlap > est.best_overlap) {
      est.best_overlap = p.overlap;
      est.best_offset = p.offset;
    }
  }
  return est;
}

}  // namespace bw::core
