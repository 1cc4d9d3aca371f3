// Index-build equivalence: the raw-log constructor's fast path (a log
// already in time order skips the time sort) and its fallback (an
// out-of-order log is stable-sorted first) give equal columns and equal
// saved bytes, and both put rows in the (address, time, flow index) order
// of the comparator sorts the radix build replaced. The log has many rows
// per (dst_ip, time) and per (src_ip, time), so the flow index alone
// orders them, and the addresses differ in every byte, so no radix pass
// is skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/dataset.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bw::core {
namespace {

constexpr std::size_t kRows = 20000;

/// A time-sorted log over 41 timestamps, 7 source and 7 destination
/// addresses: ~70 rows share each (dst_ip, time) and each (src_ip, time).
flow::FlowLog make_sorted_log(util::Rng& rng) {
  std::vector<std::uint32_t> addrs;
  for (int i = 0; i < 7; ++i) {
    addrs.push_back(static_cast<std::uint32_t>(rng.engine()()));
  }
  const net::Mac macs[] = {net::Mac(0x020000000001ULL),
                           net::Mac(0x020000000002ULL),
                           net::Mac(0x020000000003ULL), net::Mac::blackhole()};
  flow::FlowLog log(kRows);
  for (flow::FlowRecord& r : log) {
    r.time = static_cast<util::TimeMs>(rng.index(41)) * util::kMinute;
    r.src_ip = net::Ipv4(addrs[rng.index(addrs.size())] ^ 0x5A5A5A5Au);
    r.dst_ip = net::Ipv4(addrs[rng.index(addrs.size())]);
    r.proto = rng.chance(0.5) ? net::Proto::kUdp : net::Proto::kTcp;
    r.src_port = static_cast<net::Port>(rng.index(65536));
    r.dst_port = static_cast<net::Port>(rng.index(65536));
    r.src_mac = macs[rng.index(3)];
    r.dst_mac = macs[rng.index(4)];
    r.packets = static_cast<std::uint32_t>(1 + rng.index(1000));
    r.bytes = r.packets * (40 + rng.index(1460));
  }
  flow::sort_flows(log);
  return log;
}

/// A shuffle of `sorted` that keeps the relative order of rows with equal
/// timestamps, so a stable time sort gives `sorted` back.
flow::FlowLog shuffle_keeping_ties(const flow::FlowLog& sorted,
                                   util::Rng& rng) {
  flow::FlowLog shuffled = sorted;
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  std::map<util::TimeMs, std::vector<std::size_t>> slots;
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    slots[shuffled[i].time].push_back(i);
  }
  std::map<util::TimeMs, std::size_t> used;
  for (const flow::FlowRecord& r : sorted) {
    shuffled[slots[r.time][used[r.time]++]] = r;
  }
  return shuffled;
}

Dataset build(flow::FlowLog log, util::ThreadPool& pool) {
  std::unordered_map<net::Mac, bgp::Asn> macs = {
      {net::Mac(0x020000000001ULL), 64500},
      {net::Mac(0x020000000002ULL), 64501},
      {net::Mac(0x020000000003ULL), 64502}};
  return Dataset({}, std::move(log), std::move(macs), {}, {0, util::days(1)},
                 Dataset::BuildOptions(), &pool);
}

std::string saved_bytes(const Dataset& d, util::ThreadPool& pool,
                        const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/bw_index_build_" + tag + ".bwds";
  const util::Status st = d.try_save(path, &pool);
  EXPECT_TRUE(st.ok()) << st.to_string();
  std::ifstream is(path, std::ios::binary);
  std::string bytes{std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>()};
  std::filesystem::remove(path);
  return bytes;
}

void expect_same_columns(const flow::FlowColumns& a,
                         const flow::FlowColumns& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.src_ip, b.src_ip);
  EXPECT_EQ(a.dst_ip, b.dst_ip);
  EXPECT_EQ(a.proto, b.proto);
  EXPECT_EQ(a.src_port, b.src_port);
  EXPECT_EQ(a.dst_port, b.dst_port);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.src_member, b.src_member);
  EXPECT_EQ(a.dropped_words, b.dropped_words);
  EXPECT_EQ(a.s_src_ip, b.s_src_ip);
  EXPECT_EQ(a.s_time, b.s_time);
  EXPECT_EQ(a.s_src_port, b.s_src_port);
  EXPECT_EQ(a.s_dst_port, b.s_dst_port);
}

TEST(IndexBuildTest, SortedAndShuffledLogsBuildTheComparatorOrder) {
  util::Rng rng(20191021);
  const flow::FlowLog sorted = make_sorted_log(rng);
  const flow::FlowLog shuffled = shuffle_keeping_ties(sorted, rng);

  // The (address, time, flow index) orders of the comparator sorts.
  const auto comparator_order = [&](auto address) {
    std::vector<std::size_t> order(sorted.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::tuple(address(sorted[a]), sorted[a].time, a) <
             std::tuple(address(sorted[b]), sorted[b].time, b);
    });
    return order;
  };
  const std::vector<std::size_t> by_dst = comparator_order(
      [](const flow::FlowRecord& r) { return r.dst_ip.value(); });
  const std::vector<std::size_t> by_src = comparator_order(
      [](const flow::FlowRecord& r) { return r.src_ip.value(); });

  util::ThreadPool serial(0);
  const Dataset reference = build(sorted, serial);
  ASSERT_EQ(reference.quality().reordered_flows, 0u);
  const flow::FlowColumns& c = reference.columns();
  ASSERT_EQ(c.size(), kRows);
  for (std::size_t k = 0; k < kRows; ++k) {
    const flow::FlowRecord& d = sorted[by_dst[k]];
    ASSERT_EQ(c.dst_ip[k], d.dst_ip.value()) << "dst row " << k;
    ASSERT_EQ(c.time[k], d.time) << "dst row " << k;
    ASSERT_EQ(c.src_port[k], d.src_port) << "dst row " << k;
    ASSERT_EQ(c.bytes[k], d.bytes) << "dst row " << k;
    const flow::FlowRecord& s = sorted[by_src[k]];
    ASSERT_EQ(c.s_src_ip[k], s.src_ip.value()) << "src row " << k;
    ASSERT_EQ(c.s_time[k], s.time) << "src row " << k;
    ASSERT_EQ(c.s_src_port[k], s.src_port) << "src row " << k;
    ASSERT_EQ(c.s_dst_port[k], s.dst_port) << "src row " << k;
  }

  // 1000-row chunks split bitmap words, so the encoder reads the dropped
  // flags at a bit offset.
  ::setenv("BW_STORE_CHUNK_ROWS", "1000", 1);
  const std::string reference_bytes = saved_bytes(reference, serial, "ref");
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads - 1);
    for (const flow::FlowLog* log : {&sorted, &shuffled}) {
      const bool fallback = log == &shuffled;
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, "
                   << (fallback ? "shuffled" : "sorted") << " log");
      const Dataset d = build(*log, pool);
      EXPECT_EQ(d.quality().reordered_flows > 0, fallback);
      expect_same_columns(d.columns(), c);
      EXPECT_EQ(saved_bytes(d, pool, "t" + std::to_string(threads)),
                reference_bytes);
    }
  }
  ::unsetenv("BW_STORE_CHUNK_ROWS");
}

}  // namespace
}  // namespace bw::core
