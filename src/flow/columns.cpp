#include "flow/columns.hpp"

#include <algorithm>

namespace bw::flow {

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
