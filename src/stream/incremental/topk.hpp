// Streaming top-K (proto, port) tracker for the rolling reports.
//
// Two modes behind one interface:
//
//   exact          an unbounded map of true packet tallies. The rolling
//                  snapshot's top list is then exactly the batch answer.
//   space-saving   Metwally et al.'s SpaceSaving sketch with a fixed
//                  counter budget. On overflow the minimum counter is
//                  evicted and inherited: the newcomer starts at min+w
//                  with error bound err = min. The classic guarantee
//                  holds: for every tracked key,
//                      estimate - err <= true count <= estimate,
//                  and any key whose true count exceeds the smallest
//                  tracked estimate is guaranteed to be tracked.
//
// Both modes are fully deterministic: the eviction victim is the minimum
// under the total order (count asc, err asc, key asc), so the same input
// sequence always yields the same counters — a requirement for the
// rolling-report convergence tests and the property suite that diffs the
// sketch against an exact oracle.
//
// Storage is contiguous: the counters live in one vector, found through a
// flat open-addressing index from key to slot (util::FlatIndex). A rolling
// snapshot asks for the top k of every counter (65k of them in exact mode
// on a scale-0.1 corpus), so top() is a bounded selection over that vector
// — O(n log k) — rather than a copy-and-sort of all n. Slot order carries
// no meaning; every ordering the class exposes is the explicit total order
// above.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ports.hpp"
#include "util/flat_index.hpp"

namespace bw::stream::incremental {

class TopKPorts {
 public:
  struct Entry {
    net::ProtoPort pp;
    std::uint64_t count{0};  ///< exact tally, or SpaceSaving over-estimate
    std::uint64_t err{0};    ///< 0 in exact mode; inherited floor otherwise

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// `capacity` is the counter budget of the space-saving mode; ignored
  /// (unbounded) when `exact` is true.
  explicit TopKPorts(std::size_t capacity = 512, bool exact = true);

  void add(net::ProtoPort pp, std::uint64_t weight);

  /// The current top `k` entries, sorted by (count desc, err asc, key asc)
  /// — a total order, so the list is deterministic. O(n log k).
  [[nodiscard]] std::vector<Entry> top(std::size_t k) const;

  [[nodiscard]] std::uint64_t total_weight() const noexcept { return total_; }
  [[nodiscard]] std::size_t tracked() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] bool exact() const noexcept { return exact_; }

  /// Largest possible over-estimate across tracked keys (max err); 0 in
  /// exact mode without a scan. Reported in the rolling snapshot so
  /// consumers can judge the sketch quality.
  [[nodiscard]] std::uint64_t max_error() const;

 private:
  std::size_t capacity_;
  bool exact_;
  std::uint64_t total_{0};
  std::uint64_t evictions_{0};
  std::vector<Entry> entries_;
  util::FlatIndex slot_;  ///< net::port_key -> index into entries_
};

/// Jaccard similarity of the key sets of two top lists — the rolling
/// report's "stability score" between consecutive snapshots. Both empty
/// counts as perfectly stable (1.0).
[[nodiscard]] double topk_stability(const std::vector<TopKPorts::Entry>& a,
                                    const std::vector<TopKPorts::Entry>& b);

}  // namespace bw::stream::incremental
