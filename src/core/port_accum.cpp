#include "core/port_accum.hpp"

#include <algorithm>
#include <utility>

namespace bw::core {

namespace {

/// Position of `key` in the strictly increasing `v` (by `key_of`), or where
/// it would go. The back is checked first: both hot paths append in order.
template <typename T, typename K, typename KeyOf>
typename std::vector<T>::iterator seek(std::vector<T>& v, const K& key,
                                       KeyOf key_of) {
  if (v.empty() || key_of(v.back()) < key) return v.end();
  if (!(key < key_of(v.back()))) return v.end() - 1;
  return std::lower_bound(
      v.begin(), v.end(), key,
      [&](const T& e, const K& k) { return key_of(e) < k; });
}

}  // namespace

void PortSet::set_bit(net::Port port) {
  std::uint16_t& word = words_[port >> 4];
  const auto bit = static_cast<std::uint16_t>(1u << (port & 15u));
  if ((word & bit) == 0) {
    word = static_cast<std::uint16_t>(word | bit);
    ++size_;
  }
}

void PortSet::insert(net::Port port) {
  if (is_bitmap()) {
    set_bit(port);
    return;
  }
  const auto it = seek(words_, port, [](std::uint16_t p) { return p; });
  if (it != words_.end() && *it == port) return;
  if (size_ < kSortedMax) {
    words_.insert(it, port);
    ++size_;
    return;
  }
  // A new port past kSortedMax: the sorted ports become bits of the same
  // number of words, and size_ recounts them bit by bit.
  const std::vector<std::uint16_t> sorted = std::exchange(
      words_, std::vector<std::uint16_t>(kSortedMax, std::uint16_t{0}));
  size_ = 0;
  for (const std::uint16_t p : sorted) set_bit(p);
  set_bit(port);
}

void PortAccumulator::count_top(PortKey port) {
  const auto it =
      seek(top_days_, port, [](const TopCount& t) { return t.port; });
  if (it != top_days_.end() && it->port == port) {
    ++it->days;
  } else {
    top_days_.insert(it, {port, 1});
  }
}

void PortAccumulator::uncount_top(PortKey port) {
  const auto it =
      seek(top_days_, port, [](const TopCount& t) { return t.port; });
  if (--it->days == 0) top_days_.erase(it);
}

void PortAccumulator::add_day_port(std::int64_t day, PortKey port,
                                   std::uint64_t packets) {
  const auto tally_key = [](const Tally& t) {
    return std::pair<std::int64_t, PortKey>(t.day, t.port);
  };
  const auto tit = seek(tallies_, std::pair<std::int64_t, PortKey>(day, port),
                        tally_key);
  std::uint64_t count = packets;
  if (tit != tallies_.end() && tit->day == day && tit->port == port) {
    count = tit->packets += packets;
  } else {
    tallies_.insert(tit, {day, packets, port});
  }

  const auto dit = seek(days_in_, day, [](const Day& d) { return d.day; });
  if (dit == days_in_.end() || dit->day != day) {
    days_in_.insert(dit, {day, count, port});
    count_top(port);
    if (std::binary_search(days_out_.begin(), days_out_.end(), day)) {
      ++bidir_days_;
    }
    return;
  }
  Day& d = *dit;
  if (port == d.top) {
    d.top_packets = count;
    return;
  }
  if (count < d.top_packets || (count == d.top_packets && d.top < port)) {
    return;
  }
  uncount_top(d.top);
  d.top = port;
  d.top_packets = count;
  count_top(port);
}

void PortAccumulator::add_out_day(std::int64_t day) {
  const auto it = seek(days_out_, day, [](std::int64_t d) { return d; });
  if (it != days_out_.end() && *it == day) return;
  days_out_.insert(it, day);
  const auto dit = seek(days_in_, day, [](const Day& d) { return d.day; });
  if (dit != days_in_.end() && dit->day == day) ++bidir_days_;
}

HostPortStats finalize_port_host(net::Ipv4 ip, std::optional<bgp::Asn> origin,
                                 const PortAccumulator& acc,
                                 const PortStatsConfig& config) {
  HostPortStats h;
  h.ip = ip;
  h.origin = origin;
  h.unique_src_ports_in = acc.src_in_.size();
  h.unique_dst_ports_in = acc.dst_in_.size();
  h.unique_src_ports_out = acc.src_out_.size();
  h.unique_dst_ports_out = acc.dst_out_.size();
  h.days_with_inbound = acc.days_in_.size();
  h.days_with_outbound = acc.days_out_.size();
  h.days_bidirectional = acc.bidir_days_;

  h.top_ports.reserve(acc.top_days_.size());
  for (const auto& t : acc.top_days_) {
    h.top_ports.push_back(net::from_port_key(t.port));
  }
  h.port_variation = h.days_with_inbound > 0
                         ? static_cast<double>(h.top_ports.size()) /
                               static_cast<double>(h.days_with_inbound)
                         : 0.0;

  if (h.days_bidirectional >= config.min_days) {
    if (h.port_variation >= config.client_variation_min) {
      h.classification = HostClass::kClient;
    } else {
      h.classification = HostClass::kServer;
    }
  }
  return h;
}

}  // namespace bw::core
