// BGP update messages as observed at the IXP route server. The sequence of
// these messages *is* the control-plane trace of the paper (Section 3.1):
// it tells us when blackholing starts/stops, which AS triggered it, which
// peers should receive it, and the origin AS of the blackholed prefix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/community.hpp"
#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "util/time.hpp"

namespace bw::bgp {

enum class UpdateType : std::uint8_t { kAnnounce, kWithdraw };

[[nodiscard]] std::string_view to_string(UpdateType t);

/// One BGP update received by the route server from a member session.
struct Update {
  util::TimeMs time{0};
  UpdateType type{UpdateType::kAnnounce};
  Asn sender_asn{0};              ///< IXP member that sent the update
  Asn origin_asn{0};              ///< origin of the prefix (may differ)
  net::Prefix prefix;
  net::Ipv4 next_hop;             ///< blackhole next hop for RTBH routes
  std::vector<Community> communities;

  /// An RTBH route carries the RFC 7999 BLACKHOLE community.
  [[nodiscard]] bool is_blackhole() const {
    return has_community(communities, kBlackhole);
  }

  [[nodiscard]] std::string to_string() const;
};

/// Chronologically ordered control-plane trace.
using UpdateLog = std::vector<Update>;

/// Replay order: by time, withdraw-before-announce at identical
/// timestamps, so a same-instant re-announcement leaves the blackhole
/// active rather than withdrawn.
[[nodiscard]] bool update_before(const Update& a, const Update& b);

/// Stable sort into update_before order.
void sort_updates(UpdateLog& log);

}  // namespace bw::bgp
