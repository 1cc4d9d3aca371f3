// Property suite for core::PortAccumulator: the accumulator keeps each
// day's top port, the top-port histogram and the bidirectional-day count
// current as records arrive, so finalize_port_host never walks the day
// maps. This suite pins that derived state against a brute-force
// reference built from the raw record tallies with std::max_element,
// over random record streams with zero-packet records and count ties:
//
//   - after every record of a single accumulator;
//   - after a random shard split whose shards are merged in a random
//     order (the records engine's shard merge).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "core/port_accum.hpp"
#include "util/rng.hpp"

namespace bw::core {
namespace {

struct Record {
  bool inbound{true};
  std::int64_t day{0};
  net::Port src_port{0};
  net::Proto proto{net::Proto::kTcp};
  net::Port dst_port{0};
  std::uint64_t packets{0};
};

/// Narrow key and count ranges so days collide, ties on the daily maximum
/// are common, and zero-packet records can create a day on their own.
std::vector<Record> random_records(util::Rng& rng, std::size_t n) {
  std::vector<Record> out(n);
  for (Record& r : out) {
    r.inbound = rng.chance(0.6);
    r.day = rng.uniform_int(0, 9);
    r.src_port = static_cast<net::Port>(rng.uniform_int(1, 6));
    r.proto = rng.chance(0.5) ? net::Proto::kTcp : net::Proto::kUdp;
    r.dst_port = static_cast<net::Port>(rng.uniform_int(1, 5));
    r.packets = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
  }
  return out;
}

void apply(PortAccumulator& acc, const Record& r) {
  if (r.inbound) {
    acc.add_inbound(r.day, r.src_port, r.proto, r.dst_port, r.packets);
  } else {
    acc.add_outbound(r.day, r.src_port, r.dst_port);
  }
}

/// The reference: raw tallies, the day maps walked with std::max_element.
HostPortStats brute_force(const std::vector<Record>& records,
                          const PortStatsConfig& config) {
  std::set<net::Port> src_in, dst_in, src_out, dst_out;
  std::set<std::int64_t> days_in, days_out;
  std::map<std::int64_t, std::map<net::ProtoPort, std::uint64_t>> daily;
  for (const Record& r : records) {
    if (r.inbound) {
      src_in.insert(r.src_port);
      dst_in.insert(r.dst_port);
      days_in.insert(r.day);
      daily[r.day][{r.proto, r.dst_port}] += r.packets;
    } else {
      src_out.insert(r.src_port);
      dst_out.insert(r.dst_port);
      days_out.insert(r.day);
    }
  }
  HostPortStats h;
  h.ip = net::Ipv4(0x0a000001u);
  h.origin = 64500;
  h.unique_src_ports_in = src_in.size();
  h.unique_dst_ports_in = dst_in.size();
  h.unique_src_ports_out = src_out.size();
  h.unique_dst_ports_out = dst_out.size();
  h.days_with_inbound = days_in.size();
  h.days_with_outbound = days_out.size();
  for (const std::int64_t d : days_in) {
    if (days_out.contains(d)) ++h.days_bidirectional;
  }
  std::set<net::ProtoPort> tops;
  for (const auto& [day, ports] : daily) {
    tops.insert(std::max_element(ports.begin(), ports.end(),
                                 [](const auto& x, const auto& y) {
                                   return x.second < y.second;
                                 })
                    ->first);
  }
  h.top_ports.assign(tops.begin(), tops.end());
  h.port_variation = h.days_with_inbound > 0
                         ? static_cast<double>(h.top_ports.size()) /
                               static_cast<double>(h.days_with_inbound)
                         : 0.0;
  if (h.days_bidirectional >= config.min_days) {
    h.classification = h.port_variation >= config.client_variation_min
                           ? HostClass::kClient
                           : HostClass::kServer;
  }
  return h;
}

void expect_same(const HostPortStats& got, const HostPortStats& want) {
  EXPECT_EQ(got.unique_src_ports_in, want.unique_src_ports_in);
  EXPECT_EQ(got.unique_dst_ports_in, want.unique_dst_ports_in);
  EXPECT_EQ(got.unique_src_ports_out, want.unique_src_ports_out);
  EXPECT_EQ(got.unique_dst_ports_out, want.unique_dst_ports_out);
  EXPECT_EQ(got.days_with_inbound, want.days_with_inbound);
  EXPECT_EQ(got.days_with_outbound, want.days_with_outbound);
  EXPECT_EQ(got.days_bidirectional, want.days_bidirectional);
  EXPECT_EQ(got.top_ports, want.top_ports);
  EXPECT_EQ(got.port_variation, want.port_variation);
  EXPECT_EQ(got.classification, want.classification);
}

/// Few enough bidirectional days to reach both classes in 10-day streams.
PortStatsConfig small_config() {
  PortStatsConfig config;
  config.min_days = 3;
  return config;
}

TEST(PortAccumulatorPropertyTest, MatchesBruteForceAfterEveryRecord) {
  const PortStatsConfig config = small_config();
  std::set<HostClass> classes_seen;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const std::vector<Record> records = random_records(rng, 160);
    PortAccumulator acc;
    std::vector<Record> prefix;
    for (const Record& r : records) {
      apply(acc, r);
      prefix.push_back(r);
      const HostPortStats got =
          finalize_port_host(net::Ipv4(0x0a000001u), 64500, acc, config);
      expect_same(got, brute_force(prefix, config));
      ASSERT_FALSE(HasFailure()) << "after record " << prefix.size();
      classes_seen.insert(got.classification);
    }
  }
  EXPECT_EQ(classes_seen.size(), 3u) << "streams should reach every class";
}

TEST(PortAccumulatorPropertyTest, ShardMergeMatchesBruteForce) {
  const PortStatsConfig config = small_config();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed * 7919);
    const std::vector<Record> records = random_records(rng, 200);
    const auto shards = static_cast<std::size_t>(rng.uniform_int(1, 4));
    std::vector<PortAccumulator> parts(shards);
    for (const Record& r : records) apply(parts[rng.index(shards)], r);
    std::vector<std::size_t> order(shards);
    for (std::size_t i = 0; i < shards; ++i) order[i] = i;
    for (std::size_t i = shards; i > 1; --i) {
      std::swap(order[i - 1], order[rng.index(i)]);
    }
    PortAccumulator merged;
    for (const std::size_t i : order) merged.merge(parts[i]);
    expect_same(
        finalize_port_host(net::Ipv4(0x0a000001u), 64500, merged, config),
        brute_force(records, config));
  }
}

}  // namespace
}  // namespace bw::core
