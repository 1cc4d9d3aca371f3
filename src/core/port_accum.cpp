#include "core/port_accum.hpp"

namespace bw::core {

void PortAccumulator::merge(const PortAccumulator& other) {
  src_in_.insert(other.src_in_.begin(), other.src_in_.end());
  dst_in_.insert(other.dst_in_.begin(), other.dst_in_.end());
  src_out_.insert(other.src_out_.begin(), other.src_out_.end());
  dst_out_.insert(other.dst_out_.begin(), other.dst_out_.end());
  // Replaying the other side's tallies through the same per-record steps
  // keeps every invariant without a second derivation.
  for (const auto& [day, d] : other.daily_in_) {
    for (const auto& [pp, packets] : d.packets) add_day_port(day, pp, packets);
  }
  for (const std::int64_t day : other.days_out_) add_out_day(day);
}

HostPortStats finalize_port_host(net::Ipv4 ip, std::optional<bgp::Asn> origin,
                                 const PortAccumulator& acc,
                                 const PortStatsConfig& config) {
  HostPortStats h;
  h.ip = ip;
  h.origin = origin;
  h.unique_src_ports_in = acc.src_in_.size();
  h.unique_dst_ports_in = acc.dst_in_.size();
  h.unique_src_ports_out = acc.src_out_.size();
  h.unique_dst_ports_out = acc.dst_out_.size();
  h.days_with_inbound = acc.daily_in_.size();
  h.days_with_outbound = acc.days_out_.size();
  h.days_bidirectional = acc.bidir_days_;

  h.top_ports.reserve(acc.top_days_.size());
  for (const auto& [pp, days] : acc.top_days_) h.top_ports.push_back(pp);
  h.port_variation = h.days_with_inbound > 0
                         ? static_cast<double>(h.top_ports.size()) /
                               static_cast<double>(h.days_with_inbound)
                         : 0.0;

  if (h.days_bidirectional >= config.min_days) {
    if (h.port_variation >= config.client_variation_min) {
      h.classification = HostClass::kClient;
    } else {
      h.classification = HostClass::kServer;
    }
  }
  return h;
}

}  // namespace bw::core
