#include "core/anomaly.hpp"

#include <gtest/gtest.h>

namespace bw::core {
namespace {

flow::FlowRecord rec(util::TimeMs t, net::Ipv4 src, net::Ipv4 dst,
                     net::Proto proto, net::Port dst_port,
                     std::uint32_t packets = 1) {
  flow::FlowRecord r;
  r.time = t;
  r.src_ip = src;
  r.dst_ip = dst;
  r.proto = proto;
  r.dst_port = dst_port;
  r.packets = packets;
  return r;
}

/// Features of the traffic to `dst` in `range`, over a flows-only Dataset.
FeatureMatrix features_of(flow::FlowLog flows, net::Ipv4 dst,
                          util::TimeRange range) {
  const Dataset dataset({}, std::move(flows), {}, {},
                        {-util::kHour, util::days(1)});
  return compute_features(dataset, net::Prefix::host(dst), range);
}

TEST(FeatureMatrixTest, SlotBucketing) {
  const net::Ipv4 dst(10, 0, 0, 1);
  flow::FlowLog flows;
  flows.push_back(rec(0, net::Ipv4(1, 1, 1, 1), dst, net::Proto::kUdp, 80, 3));
  flows.push_back(rec(1000, net::Ipv4(1, 1, 1, 2), dst, net::Proto::kTcp, 80));
  flows.push_back(
      rec(5 * util::kMinute, net::Ipv4(1, 1, 1, 1), dst, net::Proto::kUdp, 81));
  const auto m = features_of(flows, dst, {0, 10 * util::kMinute});
  ASSERT_EQ(m.slot_count(), 2u);

  const auto& packets = m.series[static_cast<std::size_t>(Feature::kPackets)];
  EXPECT_EQ(packets[0], 4.0);
  EXPECT_EQ(packets[1], 1.0);
  const auto& fl = m.series[static_cast<std::size_t>(Feature::kFlows)];
  EXPECT_EQ(fl[0], 2.0);
  const auto& srcs =
      m.series[static_cast<std::size_t>(Feature::kUniqueSources)];
  EXPECT_EQ(srcs[0], 2.0);
  EXPECT_EQ(srcs[1], 1.0);
  const auto& ports =
      m.series[static_cast<std::size_t>(Feature::kUniqueDstPorts)];
  EXPECT_EQ(ports[0], 1.0);  // both slot-0 records hit port 80
  const auto& nontcp =
      m.series[static_cast<std::size_t>(Feature::kNonTcpFlows)];
  EXPECT_EQ(nontcp[0], 1.0);  // the UDP record; the TCP one doesn't count
  EXPECT_EQ(nontcp[1], 1.0);  // slot 1's only record is UDP
  EXPECT_EQ(m.slots_with_data(), 2u);
}

TEST(FeatureMatrixTest, OutOfRangeRecordsIgnored) {
  const net::Ipv4 dst(10, 0, 0, 1);
  flow::FlowLog flows;
  flows.push_back(rec(-1, net::Ipv4(1, 1, 1, 1), dst, net::Proto::kUdp, 80));
  flows.push_back(rec(10 * util::kMinute, net::Ipv4(1, 1, 1, 1), dst,
                      net::Proto::kUdp, 80));
  const auto m = features_of(flows, dst, {0, 10 * util::kMinute});
  EXPECT_EQ(m.slots_with_data(), 0u);
}

TEST(FeatureMatrixTest, EmptyRange) {
  const auto m = features_of({}, net::Ipv4(10, 0, 0, 1), {100, 100});
  EXPECT_EQ(m.slot_count(), 0u);
}

TEST(AnomalyScanTest, LevelCountsAnomalousFeatures) {
  FeatureMatrix m;
  m.slot = util::kMinute;
  const std::size_t n = 100;
  for (auto& s : m.series) s.assign(n, 1.0);
  // Spike all five features in the last slot.
  for (auto& s : m.series) s[n - 1] = 1000.0;
  const auto scan = detect_anomalies(m, {.window = 20});
  ASSERT_EQ(scan.level.size(), n);
  EXPECT_EQ(scan.level[n - 1], 5);
  EXPECT_EQ(scan.max_level(), 5);
  EXPECT_TRUE(scan.any_anomaly_in_last(1));
}

TEST(AnomalyScanTest, SingleFeatureAnomaly) {
  FeatureMatrix m;
  const std::size_t n = 100;
  for (auto& s : m.series) s.assign(n, 1.0);
  m.series[0][n - 1] = 1000.0;
  const auto scan = detect_anomalies(m, {.window = 20});
  EXPECT_EQ(scan.level[n - 1], 1);
}

TEST(AnomalyScanTest, NoAnomalyBeforeWindowFull) {
  FeatureMatrix m;
  for (auto& s : m.series) s.assign(10, 0.0);
  for (auto& s : m.series) s[5] = 1e9;
  const auto scan = detect_anomalies(m, {.window = 288});
  EXPECT_EQ(scan.max_level(), 0);
}

TEST(AnomalyScanTest, AnyAnomalyInLastWindow) {
  AnomalyScan scan;
  scan.level = {0, 0, 3, 0, 0};
  EXPECT_FALSE(scan.any_anomaly_in_last(2));
  EXPECT_TRUE(scan.any_anomaly_in_last(3));
  EXPECT_TRUE(scan.any_anomaly_in_last(100));
  scan.level.clear();
  EXPECT_FALSE(scan.any_anomaly_in_last(5));
}

TEST(AnomalyTest, FeatureNames) {
  EXPECT_EQ(to_string(Feature::kPackets), "packets");
  EXPECT_EQ(to_string(Feature::kNonTcpFlows), "non-tcp-flows");
}

}  // namespace
}  // namespace bw::core
