#include "ixp/platform.hpp"

#include <stdexcept>

#include "util/parallel.hpp"

namespace bw::ixp {

Platform::Platform(PlatformConfig cfg)
    : cfg_(cfg),
      rs_(cfg.rs_asn),
      service_(cfg.rs_asn),
      internal_mac_(net::Mac(0x02'42'FF'00'00'01ULL)) {
  macs_.register_internal(internal_mac_);
}

flow::MemberId Platform::add_member(bgp::Asn asn, bgp::PeerPolicy policy,
                                    std::vector<net::Prefix> owned) {
  if (prepared_) {
    throw std::logic_error("Platform: cannot add members after run()");
  }
  if (asn_to_member_.contains(asn)) {
    throw std::invalid_argument("Platform: duplicate member ASN");
  }
  const auto id = static_cast<flow::MemberId>(members_.size());
  Member m;
  m.id = id;
  m.asn = asn;
  m.port_mac = net::Mac::for_member_port(id);
  m.owned = std::move(owned);
  m.policy = policy;
  for (const auto& p : m.owned) ownership_.insert(p, id);
  macs_.register_member(id, m.port_mac);
  rs_.add_peer(asn, policy);
  asn_to_member_[asn] = id;
  members_.push_back(std::move(m));
  return id;
}

void Platform::register_origin(const net::Prefix& src_prefix, bgp::Asn origin,
                               flow::MemberId handover) {
  origin_table_.insert(src_prefix, origin);
  origin_handover_.emplace(origin, handover);
}

void Platform::announce_prefix(flow::MemberId member,
                               const net::Prefix& prefix) {
  Member& m = members_.at(member);
  m.owned.push_back(prefix);
  ownership_.insert(prefix, member);
}

const Member& Platform::member(flow::MemberId id) const {
  return members_.at(id);
}

std::optional<flow::MemberId> Platform::member_by_asn(bgp::Asn asn) const {
  const auto it = asn_to_member_.find(asn);
  if (it == asn_to_member_.end()) return std::nullopt;
  return it->second;
}

std::optional<flow::MemberId> Platform::owner_of(net::Ipv4 addr) const {
  const flow::MemberId* id = ownership_.match(addr);
  if (id == nullptr) return std::nullopt;
  return *id;
}

std::optional<bgp::Asn> Platform::origin_of(net::Ipv4 addr) const {
  const bgp::Asn* asn = origin_table_.match(addr);
  if (asn == nullptr) return std::nullopt;
  return *asn;
}

std::vector<std::pair<net::Prefix, bgp::Asn>> Platform::origin_prefix_table()
    const {
  std::vector<std::pair<net::Prefix, bgp::Asn>> out;
  out.reserve(origin_handover_.size());
  origin_table_.for_each([&](const net::Prefix& p, const bgp::Asn& asn) {
    out.emplace_back(p, asn);
  });
  return out;
}

std::optional<flow::MemberId> Platform::handover_of(bgp::Asn origin) const {
  const auto it = origin_handover_.find(origin);
  if (it == origin_handover_.end()) return std::nullopt;
  return it->second;
}

RunResult Platform::run(bgp::UpdateLog control, const TrafficSource& traffic) {
  prepare(std::move(control));
  std::vector<SliceResult> slices;
  slices.push_back(run_slice(traffic));
  util::ThreadPool serial(0);
  return finish(std::move(slices), &serial);
}

void Platform::prepare(bgp::UpdateLog control) {
  if (prepared_) throw std::logic_error("Platform: run() already called");
  prepared_ = true;

  // Control plane: replay every update through the route server. Once
  // finalized, every query run_slice() issues (blackhole intervals, peer
  // policies, ownership/origin tries, MAC table) is const and cache-free —
  // the invariant that makes concurrent slices race-free.
  rs_.process_all(std::move(control));
  rs_.finalize(cfg_.period.end);
}

Platform::SliceResult Platform::run_slice(const TrafficSource& traffic) const {
  if (!prepared_) {
    throw std::logic_error("Platform: run_slice() before prepare()");
  }

  // Identical seeds for every slice: the per-burst substreams are keyed by
  // burst id (see Fabric::carry), not by draw order, so slice membership
  // cannot change what a burst samples.
  util::Rng rng(cfg_.seed);
  flow::Collector collector(macs_, cfg_.clock, rng.fork(1));
  flow::IpfixSampler sampler(cfg_.sampling_rate, rng.fork(2));
  Fabric fabric(
      macs_, rs_, service_, ownership_,
      [this](flow::MemberId id) { return members_.at(id).asn; },
      std::move(sampler), collector);

  traffic([&fabric](const flow::TrafficBurst& b) { fabric.carry(b); });

  collector.finalize();

  SliceResult slice;
  slice.accounting = fabric.accounting();
  slice.internal_flows_removed = collector.internal_flows_removed();
  slice.flows = collector.take_flows();
  return slice;
}

RunResult Platform::finish(std::vector<SliceResult> slices,
                           util::ThreadPool* pool) {
  if (!prepared_) throw std::logic_error("Platform: finish() before prepare()");
  if (finished_) throw std::logic_error("Platform: finish() already called");
  finished_ = true;

  RunResult result;
  std::vector<flow::FlowLog> parts;
  parts.reserve(slices.size());
  for (SliceResult& s : slices) {
    parts.push_back(std::move(s.flows));
    result.internal_flows_removed += s.internal_flows_removed;
    result.accounting.bursts += s.accounting.bursts;
    result.accounting.true_packets += s.accounting.true_packets;
    result.accounting.sampled_packets += s.accounting.sampled_packets;
    result.accounting.sampled_dropped += s.accounting.sampled_dropped;
    result.accounting.sampled_dropped_private +=
        s.accounting.sampled_dropped_private;
    result.accounting.unroutable_bursts += s.accounting.unroutable_bursts;
  }
  result.data =
      flow::merge_sorted_flows(std::move(parts), util::pool_or_global(pool));

  // IXP-internal monitoring records (Section 3.1's 0.01%) never survive
  // preprocessing — the collector filters and counts them — so the merged
  // corpus only needs the bookkeeping, sized from the final record count.
  if (cfg_.internal_flow_fraction > 0.0 && !members_.empty()) {
    result.internal_flows_removed += static_cast<std::uint64_t>(
        static_cast<double>(result.data.size()) * cfg_.internal_flow_fraction);
  }

  result.control = rs_.log();
  return result;
}

}  // namespace bw::ixp
