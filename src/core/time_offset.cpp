#include "core/time_offset.hpp"

#include <algorithm>
#include <cstdint>

namespace bw::core {

namespace {

/// One dropped flow: its time position, time and destination.
struct DroppedSample {
  std::uint64_t pos;
  util::TimeMs time;
  net::Ipv4 dst;
};

/// Every dropped flow, read from the columns in time order. In RAM that is
/// the time-order view; a chunked dataset has no such view, so its dst
/// chunks are scanned and the samples sorted back by their stored time
/// positions, which gives the same sequence.
std::vector<DroppedSample> dropped_in_time_order(const Dataset& dataset) {
  std::vector<DroppedSample> out;
  if (const store::FlowStore* store = dataset.store()) {
    for (std::size_t k = 0; k < store->chunk_count(); ++k) {
      const std::shared_ptr<const store::ChunkData> chunk = store->chunk(k);
      const flow::FlowColumns& c = chunk->cols;
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (c.dropped(i)) {
          out.push_back(
              {chunk->orig_pos[i], c.time[i], net::Ipv4(c.dst_ip[i])});
        }
      }
    }
    std::sort(out.begin(), out.end(),
              [](const DroppedSample& a, const DroppedSample& b) {
                return a.pos < b.pos;
              });
    return out;
  }
  const flow::TimeOrderView flows = dataset.flows();
  const flow::FlowColumns& c = dataset.columns();
  for (std::size_t p = 0; p < flows.size(); ++p) {
    const std::size_t row = flows.row(p);
    if (c.dropped(row)) {
      out.push_back({p, c.time[row], net::Ipv4(c.dst_ip[row])});
    }
  }
  return out;
}

}  // namespace

OffsetEstimate estimate_offset(const Dataset& dataset,
                               const OffsetConfig& config) {
  OffsetEstimate est;
  const util::DurationMs step = std::max<util::DurationMs>(config.step, 1);
  const auto bins = static_cast<std::size_t>(
      (config.max_offset - config.min_offset) / step + 1);

  // Gather dropped samples in time order (optionally uniformly
  // subsampled).
  const std::vector<DroppedSample> dropped = dropped_in_time_order(dataset);
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
    const DroppedSample& sample = dropped[k];
    ++used;
    for (const auto& range : dataset.rs_index().announced_ranges(sample.dst)) {
      const util::DurationMs lo = range.begin - sample.time;
      const util::DurationMs hi = range.end - sample.time;
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
