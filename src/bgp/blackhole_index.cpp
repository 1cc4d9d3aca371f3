#include "bgp/blackhole_index.hpp"

#include <algorithm>

namespace bw::bgp {

const BlackholeIndex::Span* BlackholeIndex::Entry::active_at(
    util::TimeMs t) const {
  if (open && t >= open->range.begin) return &*open;
  auto it = std::upper_bound(closed.begin(), closed.end(), t,
                             [](util::TimeMs value, const Span& s) {
                               return value < s.range.begin;
                             });
  if (it == closed.begin()) return nullptr;
  --it;
  return it->range.contains(t) ? &*it : nullptr;
}

void BlackholeIndex::open(const net::Prefix& prefix, util::TimeMs t,
                          std::vector<Community> communities, Asn sender) {
  Entry*& entry = entries_[prefix];
  if (entry == nullptr) {
    trie_.insert(prefix, Entry{});
    entry = trie_.find(prefix);
  }
  if (entry->open) {
    // Re-announcement while active: refresh metadata only.
    entry->open->communities = std::move(communities);
    entry->open->sender = sender;
    return;
  }
  Span span;
  span.range.begin = t;
  span.communities = std::move(communities);
  span.sender = sender;
  entry->open = std::move(span);
}

void BlackholeIndex::close(const net::Prefix& prefix, util::TimeMs t) {
  const auto it = entries_.find(prefix);
  if (it == entries_.end() || !it->second->open) return;
  Entry* entry = it->second;
  Span span = std::move(*entry->open);
  entry->open.reset();
  span.range.end = t;
  if (span.range.end > span.range.begin) entry->closed.push_back(std::move(span));
}

void BlackholeIndex::finalize(util::TimeMs end_time) {
  // Each prefix is closed and sorted on its own: the map's order is moot.
  for (const auto& [prefix, entry] : entries_) {
    close(prefix, end_time);
    std::sort(entry->closed.begin(), entry->closed.end(),
              [](const Span& a, const Span& b) {
                return a.range.begin < b.range.begin;
              });
  }
}

bool BlackholeIndex::announced_at(net::Ipv4 addr, util::TimeMs t) const {
  for (const auto& [prefix, entry] : trie_.matches(addr)) {
    if (entry->active_at(t) != nullptr) return true;
  }
  return false;
}

bool BlackholeIndex::announced_at(const net::Prefix& prefix,
                                  util::TimeMs t) const {
  const Entry* entry = trie_.find(prefix);
  return entry != nullptr && entry->active_at(t) != nullptr;
}

std::vector<util::TimeRange> BlackholeIndex::announced_ranges(
    net::Ipv4 addr) const {
  std::vector<util::TimeRange> out;
  for (const auto& [prefix, entry] : trie_.matches(addr)) {
    for (const Span& s : entry->closed) out.push_back(s.range);
  }
  return out;
}

bool BlackholeIndex::dropped_for_peer(const PeerPolicy& policy, Asn peer_asn,
                                      net::Ipv4 addr, util::TimeMs t) const {
  const auto peer16 = static_cast<std::uint16_t>(peer_asn & 0xFFFF);
  for (const auto& [prefix, entry] : trie_.matches(addr)) {
    const Span* span = entry->active_at(t);
    if (span == nullptr) continue;
    if (span->sender == peer_asn) continue;  // own announcements not echoed
    if (!targeted_.should_announce(span->communities, peer16)) continue;
    if (policy.accepts_blackhole(prefix)) return true;
  }
  return false;
}

void BlackholeIndex::for_each(
    const std::function<void(const net::Prefix&, const std::vector<Span>&)>& fn)
    const {
  trie_.for_each(
      [&](const net::Prefix& p, const Entry& e) { fn(p, e.closed); });
}

}  // namespace bw::bgp
