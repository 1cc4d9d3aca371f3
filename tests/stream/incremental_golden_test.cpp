// Golden digests of a complete rolling JSONL file. The ledger pins only the
// final line of its replay; these pin every hourly line of a small fixed
// corpus — counters, top-K, stability and figures — in both top-K modes, so
// a change to the streaming state or the renderer that moves any byte of
// any intermediate snapshot fails here.
//
// The digests are FNV-1a 64 over the file bytes as written by finish().
// They are deliberately brittle: regenerate them only for an intended
// change of the rolling output, and say so where the change is recorded.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "stream/incremental/rolling.hpp"
#include "stream/replay.hpp"
#include "util/time.hpp"

namespace bw::stream::incremental {
namespace {

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

const core::Dataset& corpus() {
  static const core::Dataset dataset = [] {
    gen::ScenarioConfig cfg;
    cfg.scale = 0.02;
    cfg.seed = 12;
    cfg.period = {0, util::days(8)};
    return core::run_scenario(cfg, std::string{}).dataset;  // cache disabled
  }();
  return dataset;
}

/// Lockstep replay with an hourly rolling reporter writing `tag`'s file;
/// returns the file's bytes.
std::string rolling_file(bool exact, const std::string& tag) {
  const core::Dataset& dataset = corpus();
  RollingConfig rc;
  rc.kernels.period = dataset.period();
  rc.kernels.member_asn = [&dataset](net::Mac mac) {
    return dataset.member_asn(mac);
  };
  rc.kernels.topk_exact = exact;
  rc.kernels.topk_capacity = 64;
  // Two bidirectional days make hosts eligible inside the 8-day corpus, so
  // classification and the collateral join appear in the lines too.
  rc.kernels.ports.min_days = 2;
  rc.report_every = util::kHour;
  rc.out_path =
      ::testing::TempDir() + "/bw_rolling_golden_" + tag + ".jsonl";

  RollingReporter reporter(rc);
  core::RtbhMonitor monitor({}, [](const core::Alert&) {});
  ReplayOptions opt;
  opt.lockstep = true;
  opt.rolling = &reporter;
  const ReplayStats stats = replay_streaming(dataset, monitor, opt);
  EXPECT_EQ(stats.shed.shed_total, 0u);
  const util::Status st = reporter.finish(dataset.period().end);
  EXPECT_TRUE(st.ok()) << st.to_string();
  EXPECT_GE(reporter.snapshots(), 180u) << "hourly lines over 8 days";

  std::ifstream is(rc.out_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(rc.out_path);
  return bytes;
}

TEST(IncrementalGoldenTest, HourlyRollingFileExactTopK) {
  EXPECT_EQ(fnv1a_hex(rolling_file(true, "exact")), "654edb20c08b715a");
}

TEST(IncrementalGoldenTest, HourlyRollingFileSpaceSavingTopK) {
  EXPECT_EQ(fnv1a_hex(rolling_file(false, "spacesaving")),
            "339283b092f4a635");
}

}  // namespace
}  // namespace bw::stream::incremental
