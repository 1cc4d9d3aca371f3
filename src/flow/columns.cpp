#include "flow/columns.hpp"

#include <algorithm>
#include <functional>
#include <iterator>

#include "util/parallel.hpp"

namespace bw::flow {

FlowColumns FlowColumns::build(
    const FlowLog& flows, std::span<const std::size_t> by_dst,
    std::span<const std::size_t> by_src,
    const std::unordered_map<net::Mac, std::uint32_t>& member_ids,
    util::ThreadPool& pool) {
  FlowColumns c;
  const std::size_t n = flows.size();
  // Zero-filling ~53 B/flow is page-fault bound, so each column is sized
  // by its own task, largest first. The memory is reserved on this thread:
  // allocated on a pool thread, it would stay in that thread's heap after
  // the columns are freed, where a later load on other threads cannot reuse
  // it.
  const auto sized = [n](auto& v) {
    v.reserve(n);
    return [&v, n] { v.resize(n); };
  };
  const std::function<void()> jobs[] = {
      sized(c.time),
      sized(c.s_time),
      sized(c.bytes),
      sized(c.src_ip),
      sized(c.dst_ip),
      sized(c.packets),
      sized(c.src_member),
      sized(c.s_src_ip),
      sized(c.src_port),
      sized(c.dst_port),
      sized(c.s_src_port),
      sized(c.s_dst_port),
      sized(c.proto),
      [&] { c.dropped_words.assign((n + 63) / 64, 0); },
  };
  util::parallel_for(
      pool, std::size(jobs), [&](std::size_t j) { jobs[j](); }, 1);

  // Grain 8192 is a multiple of 64, so a bitmap word is only ever written
  // by the chunk that owns its 64 rows — the |= below is race-free.
  util::parallel_for(
      pool, n,
      [&](std::size_t k) {
        const FlowRecord& r = flows[by_dst[k]];
        c.time[k] = r.time;
        c.src_ip[k] = r.src_ip.value();
        c.dst_ip[k] = r.dst_ip.value();
        c.proto[k] = static_cast<std::uint8_t>(r.proto);
        c.src_port[k] = r.src_port;
        c.dst_port[k] = r.dst_port;
        c.packets[k] = r.packets;
        c.bytes[k] = r.bytes;
        if (r.dropped()) {
          c.dropped_words[k >> 6] |= std::uint64_t{1} << (k & 63);
        }
        const auto it = member_ids.find(r.src_mac);
        c.src_member[k] = it == member_ids.end() ? kNoMember : it->second;

        const FlowRecord& s = flows[by_src[k]];
        c.s_src_ip[k] = s.src_ip.value();
        c.s_time[k] = s.time;
        c.s_src_port[k] = s.src_port;
        c.s_dst_port[k] = s.dst_port;
      },
      8192);
  return c;
}

FlowColumns::DstScan FlowColumns::resolve_dst(const net::Prefix& prefix,
                                              util::TimeRange range) const {
  const std::uint32_t lo = prefix.network().value();
  const std::uint32_t hi = prefix.address_at(prefix.size() - 1).value();
  DstScan s;
  const auto first = std::lower_bound(dst_ip.begin(), dst_ip.end(), lo);
  const auto last = std::upper_bound(first, dst_ip.end(), hi);
  s.begin = static_cast<std::size_t>(first - dst_ip.begin());
  s.end = static_cast<std::size_t>(last - dst_ip.begin());
  if (prefix.length() == 32) {
    // A single-address run is time-sorted: the half-open window [begin,
    // end) is a contiguous sub-run, so the per-row time test disappears.
    const auto tb = time.begin();
    s.begin = static_cast<std::size_t>(
        std::lower_bound(tb + static_cast<std::ptrdiff_t>(s.begin),
                         tb + static_cast<std::ptrdiff_t>(s.end),
                         range.begin) -
        tb);
    s.end = static_cast<std::size_t>(
        std::lower_bound(tb + static_cast<std::ptrdiff_t>(s.begin),
                         tb + static_cast<std::ptrdiff_t>(s.end), range.end) -
        tb);
    s.time_filtered = false;
  } else {
    s.time_filtered = true;
  }
  return s;
}

FlowColumns::Range FlowColumns::dst_run(net::Ipv4 addr) const {
  const auto [first, last] =
      std::equal_range(dst_ip.begin(), dst_ip.end(), addr.value());
  return {static_cast<std::size_t>(first - dst_ip.begin()),
          static_cast<std::size_t>(last - dst_ip.begin())};
}

FlowColumns::Range FlowColumns::src_run(net::Ipv4 addr) const {
  const auto [first, last] =
      std::equal_range(s_src_ip.begin(), s_src_ip.end(), addr.value());
  return {static_cast<std::size_t>(first - s_src_ip.begin()),
          static_cast<std::size_t>(last - s_src_ip.begin())};
}

}  // namespace bw::flow
