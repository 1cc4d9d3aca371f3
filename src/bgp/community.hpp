// BGP community attribute (RFC 1997) plus the well-known BLACKHOLE
// community (RFC 7999) and the IXP route-server action communities that
// implement *targeted* RTBH announcements (Section 4.1 of the paper).
//
// Route-server action convention (as deployed at large European IXPs):
//   (0, peer-as)      do NOT announce this route to peer-as
//   (rs-as, peer-as)  announce this route to peer-as
//   (0, rs-as)        announce to none of the peers
//   (rs-as, rs-as)    announce to all peers (default when no action present)
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bw::bgp {

using Asn = std::uint32_t;

struct Community {
  std::uint16_t global{0};  ///< upper 16 bits (conventionally an ASN)
  std::uint16_t local{0};   ///< lower 16 bits (operator-defined value)

  [[nodiscard]] std::string to_string() const;
  static std::optional<Community> parse(std::string_view text);

  friend constexpr auto operator<=>(const Community&, const Community&) = default;
};

/// RFC 7999 BLACKHOLE community (65535:666).
inline constexpr Community kBlackhole{65535, 666};
/// RFC 1997 NO_EXPORT (65535:65281), commonly attached to RTBH routes.
inline constexpr Community kNoExport{65535, 65281};

[[nodiscard]] bool has_community(std::span<const Community> communities,
                                 Community c);

/// Decodes route-server distribution actions from a community list.
class TargetedAnnouncement {
 public:
  explicit TargetedAnnouncement(std::uint16_t route_server_asn)
      : rs_asn_(route_server_asn) {}

  /// Decide whether the route server forwards a route carrying
  /// `communities` to `peer`. Announce-actions beat the default; an explicit
  /// do-not-announce for the peer always wins.
  [[nodiscard]] bool should_announce(std::span<const Community> communities,
                                     std::uint16_t peer_asn) const;

  /// Build a community list that restricts distribution to `peers` only.
  [[nodiscard]] std::vector<Community> restrict_to(
      std::span<const std::uint16_t> peer_asns) const;

  /// Build a community list that excludes `peers` from distribution.
  [[nodiscard]] std::vector<Community> exclude(
      std::span<const std::uint16_t> peer_asns) const;

 private:
  std::uint16_t rs_asn_;
};

}  // namespace bw::bgp
