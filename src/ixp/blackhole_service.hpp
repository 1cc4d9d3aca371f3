// The IXP's RTBH service.
//
// Members trigger blackholing by announcing a prefix with the BLACKHOLE
// community towards the route server; the service maps the special next hop
// to the non-forwarding blackhole MAC (Section 3.1). This class builds
// well-formed RTBH updates and additionally models *other RTBH sources*
// (bilateral/private blackholing, responsible for ~5% of dropped bytes in
// the paper) whose drops are visible on the data plane but have no route
// server announcement.
#pragma once

#include <vector>

#include "bgp/message.hpp"
#include "bgp/rib.hpp"
#include "net/ipv4.hpp"
#include "net/mac.hpp"

namespace bw::ixp {

class BlackholeService {
 public:
  explicit BlackholeService(std::uint16_t rs_asn = 64600,
                            net::Ipv4 next_hop = net::Ipv4(10, 66, 6, 6))
      : rs_asn_(rs_asn), next_hop_(next_hop) {}

  [[nodiscard]] net::Ipv4 blackhole_next_hop() const noexcept {
    return next_hop_;
  }
  [[nodiscard]] net::Mac blackhole_mac() const noexcept {
    return net::Mac::blackhole();
  }
  [[nodiscard]] std::uint16_t rs_asn() const noexcept { return rs_asn_; }

  /// Build an RTBH announcement. `extra_communities` may carry targeted-
  /// announcement actions (Section 4.1); the BLACKHOLE and NO_EXPORT
  /// communities are always attached.
  [[nodiscard]] bgp::Update make_announce(
      util::TimeMs time, bgp::Asn sender, bgp::Asn origin,
      const net::Prefix& prefix,
      std::vector<bgp::Community> extra_communities = {}) const;

  /// Build the matching withdrawal (carries the same community set so the
  /// route server can tear the route down at exactly the peers that had it).
  [[nodiscard]] bgp::Update make_withdraw(
      util::TimeMs time, bgp::Asn sender, bgp::Asn origin,
      const net::Prefix& prefix,
      std::vector<bgp::Community> extra_communities = {}) const;

  /// Register a private (bilateral) RTBH interval: traffic to `prefix` is
  /// dropped during `range` with no route-server involvement.
  void add_private_blackhole(const net::Prefix& prefix, util::TimeRange range);

  /// True when `addr` at time `t` falls into a private blackhole.
  [[nodiscard]] bool privately_dropped(net::Ipv4 addr, util::TimeMs t) const {
    return private_.active_at(addr, t);
  }

 private:
  std::uint16_t rs_asn_;
  net::Ipv4 next_hop_;
  bgp::BlackholeHistory private_;
};

}  // namespace bw::ixp
