// Transport-layer protocol and port definitions, including the paper's
// Table 3 list of UDP amplification protocols used both by the attack
// generator and by the fine-grained-filtering analysis (Section 5.5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace bw::net {

using Port = std::uint16_t;

/// IP protocol numbers used at the vantage point.
enum class Proto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
  kOther = 255,
};

[[nodiscard]] std::string_view to_string(Proto p);

/// A transport endpoint class identified by (protocol, port); the paper's
/// Section 6.2 "top port" analysis keys on exactly this tuple.
struct ProtoPort {
  Proto proto{Proto::kUdp};
  Port port{0};

  friend constexpr auto operator<=>(const ProtoPort&, const ProtoPort&) = default;
};

/// (proto, port) packed into 24 bits whose integer order is the ProtoPort
/// order: the key of the flat per-port tables.
[[nodiscard]] constexpr std::uint32_t port_key(ProtoPort pp) noexcept {
  return static_cast<std::uint32_t>(pp.proto) << 16 | pp.port;
}

[[nodiscard]] constexpr ProtoPort from_port_key(std::uint32_t key) noexcept {
  return {static_cast<Proto>(key >> 16), static_cast<Port>(key & 0xffffu)};
}

[[nodiscard]] std::string to_string(const ProtoPort& pp);

/// One UDP amplification protocol from the paper's Table 3 footnote.
struct AmplificationProtocol {
  std::string_view name;
  Port udp_port;
  /// Typical bandwidth amplification factor (used by the DDoS generator to
  /// shape reflected volumes; values follow Rossow's amplification survey).
  double amplification_factor;
};

/// The full Table 3 list: QOTD/17, CharGEN/19, DNS/53, TFTP/69, NTP/123,
/// NetBIOS/138, SNMPv2/161, LDAP/389 (cLDAP), RIPv1/520, SSDP/1900,
/// Game/3659, Game/3478, SIP/5060, BitTorrent/6881, Memcache/11211,
/// Game/27005, Game/28960, plus port 0 as the fragmentation marker.
[[nodiscard]] std::span<const AmplificationProtocol> amplification_protocols();

/// True when `port` is one of the known UDP amplification source ports.
[[nodiscard]] bool is_amplification_port(Port port);

/// Sentinel returned by amplification_port_index for non-amplification ports.
inline constexpr std::size_t kNoAmplificationPort = ~std::size_t{0};

/// O(1) dense index of `port` into amplification_protocols(), or
/// kNoAmplificationPort when the port is not in Table 3. The columnar
/// kernels use this to accumulate per-protocol counters in flat arrays.
[[nodiscard]] std::size_t amplification_port_index(Port port);

/// Name of the amplification protocol for a UDP source port, if known.
[[nodiscard]] std::optional<std::string_view> amplification_name(Port port);

/// Well-known service ports used by the legitimate-traffic generator.
inline constexpr Port kHttp = 80;
inline constexpr Port kHttps = 443;
inline constexpr Port kDns = 53;
inline constexpr Port kSsh = 22;
inline constexpr Port kSmtp = 25;
inline constexpr Port kImap = 993;
inline constexpr Port kRdp = 3389;
inline constexpr Port kQuic = 443;

/// First port of the OS ephemeral range used for synthetic client flows.
inline constexpr Port kEphemeralBase = 32768;

}  // namespace bw::net
