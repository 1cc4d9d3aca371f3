// Per-peer RIB with blackhole interval history.
//
// The fabric needs to answer, for every sampled packet: "had this handover
// peer accepted an RTBH route covering the destination at this instant?"
// Instead of replaying BGP and traffic in lock-step we record, per accepted
// blackhole prefix, the time intervals during which it was installed, and
// answer point queries against that history.
#pragma once

#include <optional>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/route.hpp"
#include "net/prefix_trie.hpp"
#include "util/time.hpp"

namespace bw::bgp {

/// Interval history of installed blackhole prefixes.
class BlackholeHistory {
 public:
  /// Record installation of `prefix` at `t` (idempotent while open).
  void open(const net::Prefix& prefix, util::TimeMs t);

  /// Record removal of `prefix` at `t`; no-op when not installed.
  void close(const net::Prefix& prefix, util::TimeMs t);

  /// Close all still-open intervals at the end of the measurement period.
  void finalize(util::TimeMs end_time);

  /// True when any recorded prefix covering `addr` was installed at `t`.
  [[nodiscard]] bool active_at(net::Ipv4 addr, util::TimeMs t) const;

  /// True when exactly `prefix` was installed at `t`.
  [[nodiscard]] bool active_at(const net::Prefix& prefix, util::TimeMs t) const;

  /// Longest installed prefix covering `addr` at time `t`, if any.
  [[nodiscard]] std::optional<net::Prefix> covering_prefix(
      net::Ipv4 addr, util::TimeMs t) const;

  /// All intervals ever recorded for `prefix` (after finalize()).
  [[nodiscard]] std::vector<util::TimeRange> intervals(
      const net::Prefix& prefix) const;

  /// Visit every recorded prefix with its closed intervals.
  void for_each(
      const std::function<void(const net::Prefix&,
                               const std::vector<util::TimeRange>&)>& fn) const;

 private:
  struct Entry {
    std::vector<util::TimeRange> closed;  ///< sorted by begin
    std::optional<util::TimeMs> open_since;

    [[nodiscard]] bool active_at(util::TimeMs t) const;
  };

  net::PrefixTrie<Entry> trie_;
};

/// A member's routing state as fed by the route server.
class Rib {
 public:
  Rib() = default;
  Rib(Asn peer_asn, PeerPolicy policy) : asn_(peer_asn), policy_(policy) {}

  [[nodiscard]] Asn peer_asn() const noexcept { return asn_; }
  [[nodiscard]] const PeerPolicy& policy() const noexcept { return policy_; }

  /// Offer a route learned from the route server at time `t`. Applies the
  /// import policy; returns true when installed.
  bool offer(const Route& route, util::TimeMs t);

  /// Withdraw a previously offered route.
  void withdraw(const net::Prefix& prefix, bool was_blackhole, util::TimeMs t);

  void finalize(util::TimeMs end_time) { blackholes_.finalize(end_time); }

  /// Forwarding decision: true when traffic to `addr` at `t` hits an
  /// installed blackhole route (and is therefore sent to the blackhole MAC).
  [[nodiscard]] bool blackholed(net::Ipv4 addr, util::TimeMs t) const {
    return blackholes_.active_at(addr, t);
  }

  [[nodiscard]] std::size_t offered() const noexcept { return offered_; }
  [[nodiscard]] std::size_t accepted() const noexcept { return accepted_; }

 private:
  Asn asn_{0};
  PeerPolicy policy_;
  BlackholeHistory blackholes_;
  std::size_t offered_{0};
  std::size_t accepted_{0};
};

}  // namespace bw::bgp
