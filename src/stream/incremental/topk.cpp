#include "stream/incremental/topk.hpp"

#include <algorithm>

namespace bw::stream::incremental {

namespace {

/// The SpaceSaving eviction order: (count asc, err asc, key asc).
bool evicts_before(const TopKPorts::Entry& a, const TopKPorts::Entry& b) {
  if (a.count != b.count) return a.count < b.count;
  if (a.err != b.err) return a.err < b.err;
  return a.pp < b.pp;
}

/// The report order of top(): (count desc, err asc, key asc).
bool ranks_before(const TopKPorts::Entry& a, const TopKPorts::Entry& b) {
  if (a.count != b.count) return a.count > b.count;
  if (a.err != b.err) return a.err < b.err;
  return a.pp < b.pp;
}

}  // namespace

TopKPorts::TopKPorts(std::size_t capacity, bool exact)
    : capacity_(capacity == 0 ? 1 : capacity), exact_(exact) {}

void TopKPorts::add(net::ProtoPort pp, std::uint64_t weight) {
  total_ += weight;
  if (const std::uint32_t slot = slot_.find(net::port_key(pp));
      slot != util::FlatIndex::kNone) {
    entries_[slot].count += weight;
    return;
  }
  if (exact_ || entries_.size() < capacity_) {
    slot_.try_emplace(net::port_key(pp),
                      static_cast<std::uint32_t>(entries_.size()));
    entries_.push_back({pp, weight, 0});
    return;
  }
  // SpaceSaving eviction: the newcomer takes over the slot of the minimum
  // counter under the total order (count, err, key) — key last so ties
  // break deterministically — and inherits its estimate as the error floor.
  const auto victim =
      std::min_element(entries_.begin(), entries_.end(), evicts_before);
  const std::uint64_t floor = victim->count;
  slot_.erase(net::port_key(victim->pp));
  const auto slot = static_cast<std::uint32_t>(victim - entries_.begin());
  slot_.try_emplace(net::port_key(pp), slot);
  *victim = {pp, floor + weight, floor};
  ++evictions_;
}

std::vector<TopKPorts::Entry> TopKPorts::top(std::size_t k) const {
  std::vector<Entry> out(std::min(k, entries_.size()));
  std::partial_sort_copy(entries_.begin(), entries_.end(), out.begin(),
                         out.end(), ranks_before);
  return out;
}

std::uint64_t TopKPorts::max_error() const {
  if (exact_) return 0;
  std::uint64_t worst = 0;
  for (const Entry& e : entries_) worst = std::max(worst, e.err);
  return worst;
}

double topk_stability(const std::vector<TopKPorts::Entry>& a,
                      const std::vector<TopKPorts::Entry>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t common = 0;
  for (const auto& ea : a) {
    for (const auto& eb : b) {
      if (ea.pp == eb.pp) {
        ++common;
        break;
      }
    }
  }
  const std::size_t unions = a.size() + b.size() - common;
  return unions == 0 ? 1.0
                     : static_cast<double>(common) / static_cast<double>(unions);
}

}  // namespace bw::stream::incremental
