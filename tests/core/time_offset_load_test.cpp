#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/load.hpp"
#include "core/time_offset.hpp"
#include "corpus.hpp"

namespace bw::core {
namespace {

using testutil::World;

Dataset make_skewed_dataset(util::DurationMs skew) {
  World world({0, util::days(2)}, skew);
  const net::Ipv4 victim(24, 0, 0, 1);
  bgp::UpdateLog control;
  std::vector<flow::TrafficBurst> bursts;
  // Many short blackhole windows with traffic spanning the edges, so the
  // boundary samples pin down the offset.
  for (int i = 0; i < 200; ++i) {
    const util::TimeMs start = (i + 1) * 10 * util::kMinute;
    const util::TimeMs end = start + 4 * util::kMinute;
    control.push_back(world.platform->service().make_announce(
        start, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    control.push_back(world.platform->service().make_withdraw(
        end, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 1), victim,
                                 net::Proto::kUdp, 123, 4444,
                                 {start - util::kMinute, end + util::kMinute},
                                 3000, world.acceptor));
  }
  return world.run(std::move(control), bursts);
}

TEST(TimeOffsetTest, RecoversInjectedSkew) {
  const Dataset dataset = make_skewed_dataset(-40);
  OffsetConfig cfg;
  cfg.min_offset = -500;
  cfg.max_offset = 500;
  cfg.step = 10;
  const auto est = estimate_offset(dataset, cfg);
  ASSERT_FALSE(est.curve.empty());
  // Data clock runs 40 ms early; adding +40 ms realigns it.
  EXPECT_NEAR(static_cast<double>(est.best_offset), 40.0, 15.0);
  EXPECT_GT(est.best_overlap, 0.95);
  EXPECT_GT(est.dropped_samples, 1000u);
}

TEST(TimeOffsetTest, ZeroSkewPeaksAtZero) {
  const Dataset dataset = make_skewed_dataset(0);
  OffsetConfig cfg;
  cfg.min_offset = -500;
  cfg.max_offset = 500;
  cfg.step = 10;
  const auto est = estimate_offset(dataset, cfg);
  EXPECT_NEAR(static_cast<double>(est.best_offset), 0.0, 15.0);
}

TEST(TimeOffsetTest, CurveCoversGrid) {
  const Dataset dataset = make_skewed_dataset(-40);
  OffsetConfig cfg;
  cfg.min_offset = -100;
  cfg.max_offset = 100;
  cfg.step = 20;
  const auto est = estimate_offset(dataset, cfg);
  EXPECT_EQ(est.curve.size(), 11u);
  EXPECT_EQ(est.curve.front().offset, -100);
  EXPECT_EQ(est.curve.back().offset, 100);
  for (const auto& p : est.curve) {
    EXPECT_GE(p.overlap, 0.0);
    EXPECT_LE(p.overlap, 1.0);
  }
}

TEST(TimeOffsetTest, SubsamplingKeepsPeak) {
  const Dataset dataset = make_skewed_dataset(-40);
  OffsetConfig cfg;
  cfg.min_offset = -200;
  cfg.max_offset = 200;
  cfg.step = 10;
  cfg.max_samples = 20000;  // force stride > 1 but keep boundary samples
  const auto est = estimate_offset(dataset, cfg);
  EXPECT_NEAR(static_cast<double>(est.best_offset), 40.0, 30.0);
}

// With fewer allowed samples than dropped flows, estimate_offset takes
// every stride-th dropped flow in time order. The counts, the peak and a
// digest of the whole curve are pinned, so a change in which samples the
// estimator takes, or in their order, shows.
TEST(TimeOffsetTest, StridedSamplesArePinned) {
  const Dataset dataset = make_skewed_dataset(-40);
  OffsetConfig cfg;
  cfg.min_offset = -300;
  cfg.max_offset = 300;
  cfg.step = 5;
  cfg.max_samples = 700;
  const auto est = estimate_offset(dataset, cfg);
  ASSERT_GT(est.dropped_samples, cfg.max_samples);
  std::uint64_t digest = 1469598103934665603ULL;
  for (const OffsetPoint& p : est.curve) {
    digest = (digest ^ std::bit_cast<std::uint64_t>(p.overlap) ^
              static_cast<std::uint64_t>(p.offset)) *
             1099511628211ULL;
  }
  EXPECT_EQ(est.dropped_samples, 400252u);
  EXPECT_EQ(est.best_offset, -75);
  EXPECT_EQ(est.best_overlap, 1.0);
  EXPECT_EQ(digest, 5544333746732142501ULL);
}

// estimate_offset reads the columns, not the record log, so an
// out-of-core dataset (whose flows() view is empty) sees the same dropped
// samples in the same time order as the in-RAM load of the same file:
// every sample, and a strided subsample whose picks depend on that order.
TEST(TimeOffsetTest, ChunkedOpenEstimatesLikeTheInRamLoad) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("bw_time_offset." + std::to_string(::getpid()) + ".bwds"))
          .string();
  ::setenv("BW_STORE_CHUNK_ROWS", "4096", 1);
  ASSERT_TRUE(make_skewed_dataset(-40).try_save(path).ok());
  ::unsetenv("BW_STORE_CHUNK_ROWS");
  auto in_ram = Dataset::try_load(path);
  ASSERT_TRUE(in_ram.ok()) << in_ram.status().to_string();
  auto chunked = Dataset::try_open_chunked(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status().to_string();
  ASSERT_GT(chunked->store()->chunk_count(), 20u);
  ASSERT_EQ(chunked->flows().size(), 0u);

  for (const std::size_t max_samples : {std::size_t{0}, std::size_t{700}}) {
    SCOPED_TRACE("max_samples " + std::to_string(max_samples));
    OffsetConfig cfg;
    cfg.min_offset = -300;
    cfg.max_offset = 300;
    cfg.step = 5;
    cfg.max_samples = max_samples;
    const OffsetEstimate want = estimate_offset(*in_ram, cfg);
    const OffsetEstimate got = estimate_offset(*chunked, cfg);
    ASSERT_GT(want.dropped_samples, 1000u);
    EXPECT_EQ(got.dropped_samples, want.dropped_samples);
    EXPECT_EQ(got.best_offset, want.best_offset);
    EXPECT_EQ(got.best_overlap, want.best_overlap);
    ASSERT_EQ(got.curve.size(), want.curve.size());
    for (std::size_t b = 0; b < want.curve.size(); ++b) {
      EXPECT_EQ(got.curve[b].offset, want.curve[b].offset);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.curve[b].overlap),
                std::bit_cast<std::uint64_t>(want.curve[b].overlap))
          << "bin " << b;
    }
  }
  std::filesystem::remove(path);
}

TEST(LoadTest, ActivePrefixesAndMessages) {
  World world({0, util::kDay}, 0);
  const net::Ipv4 v1(24, 0, 0, 1);
  const net::Ipv4 v2(24, 0, 0, 2);
  bgp::UpdateLog control;
  // v1 blackholed hours 1-3, v2 hours 2-4: overlap in hour 2-3.
  control.push_back(world.platform->service().make_announce(
      util::kHour, World::kVictimAsn, 50000, net::Prefix::host(v1)));
  control.push_back(world.platform->service().make_withdraw(
      3 * util::kHour, World::kVictimAsn, 50000, net::Prefix::host(v1)));
  control.push_back(world.platform->service().make_announce(
      2 * util::kHour, World::kVictimAsn, 50001, net::Prefix::host(v2)));
  control.push_back(world.platform->service().make_withdraw(
      4 * util::kHour, World::kVictimAsn, 50001, net::Prefix::host(v2)));
  const Dataset dataset = world.run(std::move(control), {});

  const auto report = compute_load(dataset, util::kMinute);
  ASSERT_EQ(report.series.size(), 24u * 60u);
  EXPECT_EQ(report.max_active, 2u);
  EXPECT_EQ(report.series[90].active_prefixes, 1u);    // 01:30: v1 only
  EXPECT_EQ(report.series[30].active_prefixes, 0u);    // 00:30: none
  EXPECT_EQ(report.series[150].active_prefixes, 2u);   // 02:30: overlap
  EXPECT_EQ(report.series[200].active_prefixes, 1u);   // 03:20: v2 only
  EXPECT_EQ(report.series[60].messages, 1u);           // announce minute
  EXPECT_EQ(report.announcing_peers, 1u);
  EXPECT_EQ(report.origin_ases, 2u);
  EXPECT_GT(report.mean_active, 0.0);
  EXPECT_EQ(report.max_messages_per_slot, 1u);
}

TEST(LoadTest, EmptyDataset) {
  World world({0, util::kHour}, 0);
  const Dataset dataset = world.run({}, {});
  const auto report = compute_load(dataset, util::kMinute);
  EXPECT_EQ(report.max_active, 0u);
  EXPECT_EQ(report.mean_active, 0.0);
  EXPECT_EQ(report.announcing_peers, 0u);
}

}  // namespace
}  // namespace bw::core
