// The complete IXP vantage point: members, route server, RTBH service,
// MAC table, ownership/origin attribution, and the switching fabric.
//
// `Platform::run` replays a control-plane update log and a traffic source
// against this state and produces the two measurement corpora of the paper:
// the route-server BGP log and the sampled, clock-skewed flow log.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/route_server.hpp"
#include "flow/collector.hpp"
#include "flow/mac_table.hpp"
#include "ixp/blackhole_service.hpp"
#include "ixp/fabric.hpp"
#include "ixp/member.hpp"
#include "net/prefix_trie.hpp"
#include "util/rng.hpp"

namespace bw::ixp {

struct PlatformConfig {
  std::uint16_t rs_asn{64600};
  std::uint32_t sampling_rate{10000};  ///< 1 out of N packets (paper: 10,000)
  flow::Collector::ClockModel clock{};
  util::TimeRange period{0, util::days(104)};  ///< measurement period
  /// Fraction of internal (IXP system) records injected into the collector,
  /// which preprocessing must remove again (paper: 0.01%).
  double internal_flow_fraction{0.0001};
  std::uint64_t seed{0x5eed};
};

/// The two measurement corpora plus bookkeeping from one replay.
struct RunResult {
  bgp::UpdateLog control;
  flow::FlowLog data;
  std::uint64_t internal_flows_removed{0};
  Fabric::Accounting accounting;
};

class Platform {
 public:
  using BurstSink = std::function<void(const flow::TrafficBurst&)>;
  using TrafficSource = std::function<void(const BurstSink&)>;

  explicit Platform(PlatformConfig cfg);

  /// Register a member with its import policy and announced prefixes.
  flow::MemberId add_member(bgp::Asn asn, bgp::PeerPolicy policy,
                            std::vector<net::Prefix> owned);

  /// Attribute a source prefix to its origin AS, entering the fabric at
  /// `handover` (the ingress member carrying that origin).
  void register_origin(const net::Prefix& src_prefix, bgp::Asn origin,
                       flow::MemberId handover);

  /// Announce an additional prefix from an existing member (e.g. customer
  /// space the member carries into the IXP). Affects destination ownership.
  void announce_prefix(flow::MemberId member, const net::Prefix& prefix);

  [[nodiscard]] const Member& member(flow::MemberId id) const;
  [[nodiscard]] std::optional<flow::MemberId> member_by_asn(bgp::Asn asn) const;
  [[nodiscard]] const std::vector<Member>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] std::size_t member_count() const noexcept {
    return members_.size();
  }

  /// Member that announced the longest prefix covering `addr`, if any.
  [[nodiscard]] std::optional<flow::MemberId> owner_of(net::Ipv4 addr) const;
  /// Origin AS of a source address, if registered.
  [[nodiscard]] std::optional<bgp::Asn> origin_of(net::Ipv4 addr) const;
  /// The full (prefix -> origin AS) attribution table.
  [[nodiscard]] std::vector<std::pair<net::Prefix, bgp::Asn>>
  origin_prefix_table() const;
  /// Ingress member for traffic sourced by `origin`, if registered.
  [[nodiscard]] std::optional<flow::MemberId> handover_of(bgp::Asn origin) const;

  [[nodiscard]] BlackholeService& service() noexcept { return service_; }
  [[nodiscard]] const BlackholeService& service() const noexcept {
    return service_;
  }
  [[nodiscard]] const bgp::RouteServer& route_server() const noexcept {
    return rs_;
  }
  [[nodiscard]] const flow::MacTable& mac_table() const noexcept { return macs_; }
  [[nodiscard]] const PlatformConfig& config() const noexcept { return cfg_; }

  /// Replay: process all control-plane updates, then carry the generated
  /// traffic across the fabric. Can be called once per Platform instance.
  /// Equivalent to prepare() + one run_slice() + finish().
  RunResult run(bgp::UpdateLog control, const TrafficSource& traffic);

  /// What one traffic slice produced: its time-sorted flow log plus the
  /// slice's share of the ground-truth accounting.
  struct SliceResult {
    flow::FlowLog flows;
    Fabric::Accounting accounting;
    std::uint64_t internal_flows_removed{0};
  };

  /// Phase 1 of a (possibly sharded) replay: process the whole control
  /// plane and freeze the platform. Afterwards every forwarding-relevant
  /// query is immutable, so any number of run_slice() calls may execute
  /// concurrently.
  void prepare(bgp::UpdateLog control);

  /// Phase 2: carry one slice of the traffic schedule across the fabric.
  /// Uses slice-local sampler/collector/fabric state seeded identically for
  /// every slice; per-burst draws are keyed by TrafficBurst::id, so the
  /// records a burst produces do not depend on which slice carries it.
  [[nodiscard]] SliceResult run_slice(const TrafficSource& traffic) const;

  /// Phase 3: stitch slice outputs (in slice order) into the corpus with a
  /// stable ordered merge over `pool` (null: the global pool), sum the
  /// accounting, and add the IXP-internal flow bookkeeping. Byte-identical
  /// for any partition of the same burst stream into slices and at any
  /// thread count.
  [[nodiscard]] RunResult finish(std::vector<SliceResult> slices,
                                 util::ThreadPool* pool = nullptr);

 private:
  PlatformConfig cfg_;
  bgp::RouteServer rs_;
  flow::MacTable macs_;
  BlackholeService service_;
  std::vector<Member> members_;
  std::unordered_map<bgp::Asn, flow::MemberId> asn_to_member_;
  net::PrefixTrie<flow::MemberId> ownership_;
  net::PrefixTrie<bgp::Asn> origin_table_;
  std::unordered_map<bgp::Asn, flow::MemberId> origin_handover_;
  net::Mac internal_mac_;
  bool prepared_{false};
  bool finished_{false};
};

}  // namespace bw::ixp
