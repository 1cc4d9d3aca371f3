// Property suite for core::PortAccumulator: the accumulator keeps each
// day's top port, the top-port histogram and the bidirectional-day count
// current as records arrive, so finalize_port_host never walks the day
// maps. This suite pins that derived state against a brute-force
// reference built from the raw record tallies with std::max_element,
// over random record streams with zero-packet records and count ties:
//
//   - after every record of a single accumulator;
//   - with days arriving in reverse and shuffled order (the flat layout's
//     insert-in-place path, not just its append fast path);
//   - with outbound days seen before their inbound days (the bidirectional
//     count's second-side increment from either side);
//   - with every port of a day tied on packets (the first-maximum rule);
//   - with more than 4,096 distinct ports (the sorted-to-bitmap switch of
//     the port sets), whatever order the ports arrive in.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "net/ipv4.hpp"

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

TEST(PortAccumulatorPropertyTest, OutOfOrderDaysMatchBruteForce) {
  const PortStatsConfig config = small_config();
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed * 104729);
    std::vector<Record> records = random_records(rng, 240);
    // Newest day first, then a shuffle: every day lands before existing
    // ones at least once.
    std::stable_sort(records.begin(), records.end(),
                     [](const Record& a, const Record& b) {
                       return a.day > b.day;
                     });
    for (const bool shuffle : {false, true}) {
      if (shuffle) {
        for (std::size_t i = records.size(); i > 1; --i) {
          std::swap(records[i - 1], records[rng.index(i)]);
        }
      }
      PortAccumulator acc;
      std::vector<Record> prefix;
      for (const Record& r : records) {
        apply(acc, r);
        prefix.push_back(r);
        expect_same(
            finalize_port_host(net::Ipv4(0x0a000001u), 64500, acc, config),
            brute_force(prefix, config));
        ASSERT_FALSE(HasFailure()) << "after record " << prefix.size();
      }
    }
  }
}

TEST(PortAccumulatorPropertyTest, OutboundBeforeInboundCountsBidirectional) {
  PortStatsConfig config;
  config.min_days = 4;
  // Days 9, 7, 5, 3 see outbound traffic first; days 3, 5, 7, 9 inbound
  // later, plus inbound-only and outbound-only days that must not count.
  std::vector<Record> records;
  for (const std::int64_t day : {9, 7, 5, 3, 12}) {
    records.push_back({false, day, 50000, net::Proto::kTcp, 443, 0});
  }
  for (const std::int64_t day : {3, 5, 7, 9, 1}) {
    records.push_back({true, day, 40000, net::Proto::kTcp, 443, 2});
  }
  // A second outbound record on an already-bidirectional day is no news.
  records.push_back({false, 5, 50001, net::Proto::kTcp, 443, 0});

  PortAccumulator acc;
  for (const Record& r : records) apply(acc, r);
  const HostPortStats got =
      finalize_port_host(net::Ipv4(0x0a000001u), 64500, acc, config);
  EXPECT_EQ(got.days_bidirectional, 4u);
  EXPECT_EQ(got.classification, HostClass::kServer);
  expect_same(got, brute_force(records, config));

  // The same record set with every inbound record first.
  PortAccumulator in_first;
  for (const bool inbound : {true, false}) {
    for (const Record& r : records) {
      if (r.inbound == inbound) apply(in_first, r);
    }
  }
  expect_same(
      finalize_port_host(net::Ipv4(0x0a000001u), 64500, in_first, config),
      got);
}

TEST(PortAccumulatorPropertyTest, TiedDaysKeepTheFirstMaximum) {
  const PortStatsConfig config = small_config();
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed * 7);
    // Every day: the same 12 (proto, port) keys, each brought to the same
    // total in a random order and random steps, so each day ends in a
    // 12-way tie its first maximum (the smallest key) must win.
    std::vector<Record> records;
    for (std::int64_t day = 0; day < 6; ++day) {
      std::vector<Record> day_records;
      for (net::Port port = 1; port <= 6; ++port) {
        for (const net::Proto proto : {net::Proto::kTcp, net::Proto::kUdp}) {
          day_records.push_back({true, day, 1000, proto, port, 2});
          day_records.push_back({true, day, 1000, proto, port, 1});
          day_records.push_back({true, day, 1000, proto, port, 1});
        }
      }
      for (std::size_t i = day_records.size(); i > 1; --i) {
        std::swap(day_records[i - 1], day_records[rng.index(i)]);
      }
      records.insert(records.end(), day_records.begin(), day_records.end());
      records.push_back({false, day, 2000, net::Proto::kTcp, 80, 0});
    }
    PortAccumulator acc;
    std::vector<Record> prefix;
    for (const Record& r : records) {
      apply(acc, r);
      prefix.push_back(r);
      expect_same(
          finalize_port_host(net::Ipv4(0x0a000001u), 64500, acc, config),
          brute_force(prefix, config));
      ASSERT_FALSE(HasFailure()) << "after record " << prefix.size();
    }
    const HostPortStats got =
        finalize_port_host(net::Ipv4(0x0a000001u), 64500, acc, config);
    ASSERT_EQ(got.top_ports.size(), 1u);
    EXPECT_EQ(got.top_ports[0], (net::ProtoPort{net::Proto::kTcp, 1}));
    EXPECT_EQ(got.classification, HostClass::kServer);
  }
}

TEST(PortAccumulatorPropertyTest, MoreThan4096PortsStayExact) {
  const PortStatsConfig config = small_config();
  util::Rng rng(4096);
  // Random 16-bit ports: ~9,000 distinct source ports, ~6,000 distinct
  // destination ports, with repeats on both sides of the 4,096 switch.
  std::vector<Record> records(12000);
  for (Record& r : records) {
    r.inbound = rng.chance(0.7);
    r.day = rng.uniform_int(0, 4);
    r.src_port = static_cast<net::Port>(rng.uniform_int(0, 65535));
    r.proto = rng.chance(0.5) ? net::Proto::kTcp : net::Proto::kUdp;
    r.dst_port = static_cast<net::Port>(rng.uniform_int(0, 6999));
    r.packets = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
  }
  const HostPortStats want = brute_force(records, config);
  ASSERT_GT(want.unique_src_ports_in, 4096u);
  ASSERT_GT(want.unique_dst_ports_in, 4096u);

  PortAccumulator acc;
  for (const Record& r : records) apply(acc, r);
  expect_same(finalize_port_host(net::Ipv4(0x0a000001u), 64500, acc, config),
              want);

  // Other arrival orders across the switch: the last 200 records first,
  // then the rest; and the whole stream reversed.
  PortAccumulator tail_first;
  for (std::size_t i = records.size() - 200; i < records.size(); ++i) {
    apply(tail_first, records[i]);
  }
  for (std::size_t i = 0; i < records.size() - 200; ++i) {
    apply(tail_first, records[i]);
  }
  expect_same(
      finalize_port_host(net::Ipv4(0x0a000001u), 64500, tail_first, config),
      want);
  PortAccumulator reversed;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    apply(reversed, *it);
  }
  expect_same(
      finalize_port_host(net::Ipv4(0x0a000001u), 64500, reversed, config),
      want);

  // A stream that stays below the switch: odd-indexed records, then even.
  std::vector<Record> sub(records.begin(),
                          records.begin() + records.size() / 6);
  PortAccumulator a;
  for (const std::size_t parity : {1u, 0u}) {
    for (std::size_t i = parity; i < sub.size(); i += 2) apply(a, sub[i]);
  }
  expect_same(finalize_port_host(net::Ipv4(0x0a000001u), 64500, a, config),
              brute_force(sub, config));
}

}  // namespace
}  // namespace bw::core
