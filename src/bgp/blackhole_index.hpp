// Annotated blackhole activity index.
//
// The route server records, per RTBH prefix, the intervals during which the
// blackhole was announced together with the announcement's community set
// and sender. Because a peer's import decision is a *pure function* of its
// policy and the prefix, and route-server distribution is a pure function
// of the communities and the peer ASN, this single index answers the
// per-packet forwarding question for *any* peer without materialising
// per-peer RIBs — turning an O(updates x peers) replay into O(updates).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/community.hpp"
#include "bgp/policy.hpp"
#include "net/prefix_trie.hpp"
#include "util/time.hpp"

namespace bw::bgp {

class BlackholeIndex {
 public:
  explicit BlackholeIndex(std::uint16_t rs_asn = 64600) : targeted_(rs_asn) {}

  /// Record an RTBH announcement for `prefix` at `t`. A re-announcement of
  /// an open blackhole replaces its metadata (communities may change).
  void open(const net::Prefix& prefix, util::TimeMs t,
            std::vector<Community> communities, Asn sender);

  /// Record the withdrawal at `t`; no-op when not announced.
  void close(const net::Prefix& prefix, util::TimeMs t);

  /// Close all open blackholes at the end of the measurement period.
  void finalize(util::TimeMs end_time);

  /// Was any blackhole covering `addr` announced (at the route server) at
  /// time `t`?
  [[nodiscard]] bool announced_at(net::Ipv4 addr, util::TimeMs t) const;
  [[nodiscard]] bool announced_at(const net::Prefix& prefix,
                                  util::TimeMs t) const;

  /// Forwarding decision for a peer: true when a blackhole covering `addr`
  /// was announced at `t`, was distributed to `peer_asn` (targeted-
  /// announcement communities), did not originate from the peer itself,
  /// and passes the peer's import policy.
  [[nodiscard]] bool dropped_for_peer(const PeerPolicy& policy, Asn peer_asn,
                                      net::Ipv4 addr, util::TimeMs t) const;

  /// Number of distinct prefixes ever blackholed.
  [[nodiscard]] std::size_t prefix_count() const noexcept {
    return trie_.size();
  }

  /// All announced intervals of every prefix covering `addr` (closed spans
  /// only — call finalize() first for complete results).
  [[nodiscard]] std::vector<util::TimeRange> announced_ranges(
      net::Ipv4 addr) const;

  /// One announced interval with its distribution metadata.
  struct Span {
    util::TimeRange range;
    std::vector<Community> communities;
    Asn sender{0};
  };

  /// Visit every prefix with all its (closed) spans, in prefix order.
  void for_each(const std::function<void(const net::Prefix&,
                                         const std::vector<Span>&)>& fn) const;

 private:
  struct Entry {
    std::vector<Span> closed;  ///< sorted by range.begin after finalize()
    std::optional<Span> open;  ///< open.range.end unused while open

    [[nodiscard]] const Span* active_at(util::TimeMs t) const;
  };

  TargetedAnnouncement targeted_;
  net::PrefixTrie<Entry> trie_;
  /// Every trie entry by its exact prefix, so open() and close() skip the
  /// bit-by-bit descent. Trie nodes never move: the pointers stay valid.
  std::unordered_map<net::Prefix, Entry*> entries_;
};

}  // namespace bw::bgp
