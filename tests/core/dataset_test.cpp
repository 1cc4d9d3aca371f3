#include "core/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "corpus.hpp"

namespace bw::core {
namespace {

using testutil::World;

class DatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    World world;
    const net::Ipv4 victim(24, 0, 0, 1);
    bgp::UpdateLog control;
    control.push_back(world.platform->service().make_announce(
        util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    control.push_back(world.platform->service().make_withdraw(
        2 * util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));

    std::vector<flow::TrafficBurst> bursts;
    // 100 packets during the blackhole from the acceptor (dropped),
    // 50 before it (forwarded).
    bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 1), victim,
                                 net::Proto::kUdp, 123, 4444,
                                 {util::kHour, 2 * util::kHour}, 100,
                                 world.acceptor));
    bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 2), victim,
                                 net::Proto::kUdp, 123, 4444,
                                 {0, util::kHour}, 50, world.acceptor));
    dataset_ = std::make_unique<Dataset>(world.run(std::move(control), bursts));
    macs_acceptor_ = world.platform->member(world.acceptor).port_mac;
  }

  std::unique_ptr<Dataset> dataset_;
  net::Mac macs_acceptor_;
};

TEST_F(DatasetTest, SummaryCountsDrops) {
  const auto s = dataset_->summary();
  EXPECT_EQ(s.control_updates, 2u);
  EXPECT_EQ(s.blackhole_updates, 2u);
  EXPECT_EQ(s.blackholed_prefixes, 1u);
  EXPECT_EQ(s.flow_records, 150u);
  EXPECT_EQ(s.sampled_packets, 150u);
  EXPECT_EQ(s.dropped_packets, 100u);
}

TEST_F(DatasetTest, RsIndexRebuiltFromControl) {
  EXPECT_TRUE(dataset_->rs_index().announced_at(net::Ipv4(24, 0, 0, 1),
                                                90 * util::kMinute));
  EXPECT_FALSE(dataset_->rs_index().announced_at(net::Ipv4(24, 0, 0, 1),
                                                 3 * util::kHour));
}

TEST_F(DatasetTest, FlowsToFiltersPrefixAndRange) {
  const auto all = dataset_->flows_to(net::Ipv4(24, 0, 0, 1));
  EXPECT_EQ(all.size(), 150u);
  const auto during = dataset_->flows_to(
      net::Prefix::host(net::Ipv4(24, 0, 0, 1)), {util::kHour, 2 * util::kHour});
  EXPECT_EQ(during.size(), 100u);
  const auto none = dataset_->flows_to(
      net::Prefix::host(net::Ipv4(24, 0, 0, 99)), dataset_->period());
  EXPECT_TRUE(none.empty());
}

TEST_F(DatasetTest, HostScanHonorsTimeSubrangeBoundaries) {
  // Host (/32) runs are time-sorted, so the scan binary-searches the time
  // window instead of filtering per record; boundary behaviour must stay
  // exactly half-open [begin, end).
  const net::Ipv4 victim(24, 0, 0, 1);
  const net::Prefix host = net::Prefix::host(victim);
  const util::TimeRange windows[] = {
      {0, util::kHour},
      {util::kHour, 2 * util::kHour},
      {30 * util::kMinute, 90 * util::kMinute},
      {util::kHour, util::kHour},  // empty window
      {util::kHour, util::kHour + 1},
      {-util::kHour, 4 * util::kHour},  // wider than the data
  };
  for (const auto& range : windows) {
    std::size_t scanned = 0;
    std::uint64_t packets = 0;
    dataset_->for_each_flow_to(host, range, [&](const flow::FlowRecord& rec) {
      EXPECT_TRUE(range.contains(rec.time));
      ++scanned;
      packets += rec.packets;
    });
    std::size_t expected = 0;
    std::uint64_t expected_packets = 0;
    for (const auto& rec : dataset_->flows()) {
      if (rec.dst_ip == victim && range.contains(rec.time)) {
        ++expected;
        expected_packets += rec.packets;
      }
    }
    EXPECT_EQ(scanned, expected)
        << "[" << range.begin << ", " << range.end << ")";
    EXPECT_EQ(packets, expected_packets);
  }
}

TEST_F(DatasetTest, ColumnsMirrorDestinationOrder) {
  const auto& cols = dataset_->columns();
  ASSERT_EQ(cols.size(), dataset_->flows().size());
  // Rows ascend by (dst_ip, time) and the dropped bitmap agrees with the
  // record flags in aggregate.
  std::uint64_t dropped_rows = 0;
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (k > 0) {
      EXPECT_GE(cols.dst_ip[k], cols.dst_ip[k - 1]);
      if (cols.dst_ip[k] == cols.dst_ip[k - 1]) {
        EXPECT_GE(cols.time[k], cols.time[k - 1]);
      }
    }
    if (cols.dropped(k)) ++dropped_rows;
  }
  std::uint64_t dropped_records = 0;
  for (const auto& rec : dataset_->flows()) {
    if (rec.dropped()) ++dropped_records;
  }
  EXPECT_EQ(dropped_rows, dropped_records);
}

TEST_F(DatasetTest, SummaryEnginesAgree) {
  const auto columnar = dataset_->summary(nullptr, KernelEngine::kColumnar);
  const auto records = dataset_->summary(nullptr, KernelEngine::kRecords);
  EXPECT_EQ(columnar.control_updates, records.control_updates);
  EXPECT_EQ(columnar.blackhole_updates, records.blackhole_updates);
  EXPECT_EQ(columnar.blackholed_prefixes, records.blackholed_prefixes);
  EXPECT_EQ(columnar.flow_records, records.flow_records);
  EXPECT_EQ(columnar.sampled_packets, records.sampled_packets);
  EXPECT_EQ(columnar.sampled_bytes, records.sampled_bytes);
  EXPECT_EQ(columnar.dropped_packets, records.dropped_packets);
  EXPECT_EQ(columnar.dropped_bytes, records.dropped_bytes);
}

TEST_F(DatasetTest, FlowsFromSourcePrefix) {
  // Source-address scans run over the src-ordered s_* columns.
  const flow::FlowColumns& cols = dataset_->columns();
  const auto& src = cols.s_src_ip;
  const auto first = std::lower_bound(src.begin(), src.end(),
                                      net::Ipv4(64, 0, 0, 0).value());
  const auto last = std::upper_bound(first, src.end(),
                                     net::Ipv4(64, 0, 255, 255).value());
  EXPECT_EQ(last - first, 150);
  EXPECT_EQ(cols.src_run(net::Ipv4(64, 0, 0, 2)).size(), 50u);
}

TEST_F(DatasetTest, Attribution) {
  EXPECT_EQ(dataset_->member_asn(macs_acceptor_), World::kAcceptorAsn);
  EXPECT_FALSE(dataset_->member_asn(net::Mac(0xDEADBEEFULL)));
  EXPECT_EQ(dataset_->origin_asn(net::Ipv4(64, 0, 0, 1)), 210000u);
  EXPECT_FALSE(dataset_->origin_asn(net::Ipv4(65, 0, 0, 1)));
}

TEST_F(DatasetTest, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/bw_dataset_rt.bwds";
  dataset_->save(path);
  const Dataset loaded = Dataset::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.control().size(), dataset_->control().size());
  ASSERT_EQ(loaded.flows().size(), dataset_->flows().size());
  for (std::size_t i = 0; i < loaded.flows().size(); ++i) {
    const auto& a = loaded.flows()[i];
    const auto& b = dataset_->flows()[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.src_ip, b.src_ip);
    EXPECT_EQ(a.dst_ip, b.dst_ip);
    EXPECT_EQ(a.proto, b.proto);
    EXPECT_EQ(a.src_port, b.src_port);
    EXPECT_EQ(a.dst_port, b.dst_port);
    EXPECT_EQ(a.src_mac, b.src_mac);
    EXPECT_EQ(a.dst_mac, b.dst_mac);
    EXPECT_EQ(a.bytes, b.bytes);
  }
  EXPECT_EQ(loaded.period(), dataset_->period());
  EXPECT_EQ(loaded.mac_table().size(), dataset_->mac_table().size());
  EXPECT_EQ(loaded.origin_asn(net::Ipv4(64, 0, 0, 1)), 210000u);
  const auto s1 = loaded.summary();
  const auto s2 = dataset_->summary();
  EXPECT_EQ(s1.dropped_packets, s2.dropped_packets);
  // Control log round-trips communities.
  EXPECT_TRUE(loaded.control()[0].is_blackhole());
}

TEST_F(DatasetTest, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/bw_dataset_bad.bwds";
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a dataset";
  }
  EXPECT_THROW((void)Dataset::load(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW((void)Dataset::load("/nonexistent/nope.bwds"),
               std::runtime_error);
}

}  // namespace
}  // namespace bw::core
