// Data-plane record types.
//
// `TrafficBurst` is the generator-side ground truth: a homogeneous run of
// packets between two endpoints inside a time window. The fabric samples
// bursts 1:10,000 (Section 3.1) into `FlowRecord`s — the only data the
// analysis pipeline is allowed to see, mirroring the paper's IPFIX corpus:
// packet sizes, src/dst MAC, IP addresses, and transport ports. Payload is
// never modelled (the paper has none either, for privacy reasons).
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.hpp"
#include "net/mac.hpp"
#include "net/ports.hpp"
#include "util/time.hpp"

namespace bw::util {
class ThreadPool;
}

namespace bw::flow {

/// Identifier of an IXP member (dense index assigned by the platform).
using MemberId = std::uint32_t;

/// Generator-side ground truth, pre-sampling.
struct TrafficBurst {
  util::TimeRange window;
  net::Ipv4 src_ip;
  net::Ipv4 dst_ip;
  net::Proto proto{net::Proto::kUdp};
  net::Port src_port{0};
  net::Port dst_port{0};
  std::int64_t packets{0};
  std::int32_t avg_packet_bytes{500};
  MemberId handover{0};  ///< member port where the traffic enters the fabric
  /// Content key for the fabric's per-burst RNG substreams (sampling count,
  /// sample times, collector jitter). Keying by burst identity instead of
  /// arrival order makes the sampled corpus independent of how the burst
  /// stream is partitioned across generation shards. 0 = unkeyed; the
  /// fabric then falls back to an arrival-order counter (serial-replay
  /// sources only — unkeyed streams are not shard-invariant).
  std::uint64_t id{0};
};

/// One sampled IPFIX record as exported by the IXP monitoring system.
struct FlowRecord {
  util::TimeMs time{0};  ///< export timestamp (data-plane clock!)
  net::Ipv4 src_ip;
  net::Ipv4 dst_ip;
  net::Proto proto{net::Proto::kUdp};
  net::Port src_port{0};
  net::Port dst_port{0};
  net::Mac src_mac;  ///< handover member router port
  net::Mac dst_mac;  ///< egress member port, or the blackhole MAC
  std::uint32_t packets{1};
  std::uint64_t bytes{0};

  /// True when the packet was redirected to the non-forwarding blackhole
  /// MAC, i.e. dropped by the RTBH service (Section 3.1).
  [[nodiscard]] bool dropped() const { return dst_mac == net::Mac::blackhole(); }

  /// Field by field in declaration order, time first: a total order in
  /// which exact duplicates sort adjacent.
  friend auto operator<=>(const FlowRecord&, const FlowRecord&) = default;
};

using FlowLog = std::vector<FlowRecord>;

/// Chronological sort by data-plane timestamp. Stable: records with equal
/// timestamps keep their input order, so sorting per-shard slices and
/// stitching them with merge_sorted_flows is equivalent to sorting the
/// concatenated log in one pass.
void sort_flows(FlowLog& flows);

/// Stable ordered merge of individually time-sorted logs: equal timestamps
/// resolve in favour of the earlier part, i.e. the result is byte-identical
/// to concatenating `parts` in order and calling sort_flows once. One
/// k-way pass over `pool`: the output is cut into time ranges, and each
/// range merges its share of every part into its prefix-sum offset, so the
/// result is the same at any thread count.
[[nodiscard]] FlowLog merge_sorted_flows(std::vector<FlowLog> parts,
                                         util::ThreadPool& pool);

}  // namespace bw::flow
