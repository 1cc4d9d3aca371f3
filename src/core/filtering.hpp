// Fine-grained filtering what-if analysis (Section 5.5, Fig. 14).
//
// For each attack-correlated RTBH event, emulate filtering only the packets
// matching known UDP amplification signatures (source port on the Table 3
// list) and measure which share of the event's traffic that covers. In the
// paper ~90% of events could be handled completely this way — dropping the
// attack while sparing legitimate flows.
#pragma once

#include <vector>

#include "core/event_merge.hpp"
#include "core/pre_rtbh.hpp"

namespace bw::core {

struct FilteringReport {
  /// Per qualifying event: share of its packets matched by the
  /// amplification-port filter.
  std::vector<double> coverage;
  std::size_t events_considered{0};
  double fully_filterable_fraction{0.0};  ///< coverage >= threshold
  double threshold{0.95};
};

[[nodiscard]] FilteringReport compute_filtering(
    const Dataset& dataset, const std::vector<RtbhEvent>& events,
    const PreRtbhReport& pre, double full_threshold = 0.95,
    KernelEngine = KernelEngine::kColumnar);

}  // namespace bw::core
