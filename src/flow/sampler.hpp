// 1:N packet sampler.
//
// The IXP exports IPFIX samples of 1 out of 10,000 packets (Section 3.1).
// For a burst of `n` packets the number of sampled packets is
// Binomial(n, 1/N) — statistically identical to flipping a coin per packet —
// and sample times are uniform within the burst window (packets within a
// burst are homogeneous by construction). This is what lets the simulator
// carry paper-scale traffic volumes without materialising every packet.
#pragma once

#include <vector>

#include "flow/record.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace bw::flow {

class IpfixSampler {
 public:
  IpfixSampler(std::uint32_t one_in_n, util::Rng rng)
      : n_(one_in_n == 0 ? 1 : one_in_n), rng_(rng) {}

  [[nodiscard]] std::uint32_t rate() const noexcept { return n_; }
  [[nodiscard]] double probability() const noexcept { return 1.0 / n_; }

  /// Draw the sampled-packet timestamps for one burst, sorted ascending.
  /// Draws from the sampler's own sequential stream — order-dependent, so
  /// only suitable for serial replay.
  [[nodiscard]] std::vector<util::TimeMs> sample_times(const TrafficBurst& burst);

  /// Same draw from a caller-provided stream. Pass `stream(key)` with a
  /// content-derived key (burst id) and the sample is a pure function of
  /// (sampler seed, key, burst), independent of burst arrival order.
  [[nodiscard]] std::vector<util::TimeMs> sample_times(const TrafficBurst& burst,
                                                       util::Rng& rng) const;

  /// Independent per-key substream of this sampler's seed.
  [[nodiscard]] util::Rng stream(std::uint64_t key) const {
    return rng_.fork(key);
  }

 private:
  std::uint32_t n_;
  util::Rng rng_;
};

}  // namespace bw::flow
