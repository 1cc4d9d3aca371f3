// Golden digests of the online monitor's whole alert log on the CI stream
// corpus (scale 0.02, seed 7, 8 days) under three configurations: the
// default, an LRU cap of 64 destinations (evictions end open events), and
// short zombie/merge delays that make the periodic sweep raise most of the
// alerts. Every field of every alert is hashed, in emission order, so a
// change that reorders alerts within a sweep or within finish(), or moves
// a detector's anomaly flag, fails here.
//
// The digests are FNV-1a 64 over the rendered log. They are deliberately
// brittle: regenerate them only for an intended change of monitor output,
// and say so where the change is recorded.
#include <gtest/gtest.h>

#include <array>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "stream/replay.hpp"
#include "util/time.hpp"

namespace bw::stream {
namespace {

const core::Dataset& corpus() {
  static const core::Dataset dataset = [] {
    gen::ScenarioConfig cfg;
    cfg.scale = 0.02;
    cfg.seed = 7;
    cfg.period = {0, util::days(8)};
    return core::run_scenario(cfg, std::string{}).dataset;  // cache disabled
  }();
  return dataset;
}

struct AlertLog {
  std::string text;
  std::array<std::size_t, 5> by_kind{};
};

/// Batch replay of the corpus; one line per alert with every field, the
/// value in round-trip precision.
AlertLog alert_log(const core::MonitorConfig& cfg) {
  AlertLog log;
  core::RtbhMonitor monitor(cfg, [&log](const core::Alert& a) {
    ++log.by_kind[static_cast<std::size_t>(a.kind)];
    std::array<char, 32> value{};
    const auto res = std::to_chars(value.data(), value.data() + value.size(),
                                   a.value);
    log.text += std::string(core::to_string(a.kind)) + " " +
                std::to_string(a.time) + " " + a.prefix.to_string() + " " +
                std::to_string(a.origin) + " " +
                std::string(value.data(), res.ptr) + " " + a.message + "\n";
  });
  replay_batch(corpus(), monitor);
  return log;
}

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

std::size_t kind(const AlertLog& log, core::AlertKind k) {
  return log.by_kind[static_cast<std::size_t>(k)];
}

TEST(MonitorGoldenTest, DefaultConfig) {
  const AlertLog log = alert_log({});
  EXPECT_GT(kind(log, core::AlertKind::kAttackCorrelated), 0u);
  EXPECT_GT(kind(log, core::AlertKind::kLowDropRate), 0u);
  EXPECT_EQ(fnv1a_hex(log.text), "950378465d345dae");
}

TEST(MonitorGoldenTest, LruCapOf64Destinations) {
  core::MonitorConfig cfg;
  cfg.max_destinations = 64;
  const AlertLog log = alert_log(cfg);
  EXPECT_GT(kind(log, core::AlertKind::kEventEnded), 0u);
  EXPECT_EQ(fnv1a_hex(log.text), "415e3c41ca004415");
}

TEST(MonitorGoldenTest, ShortDelaysMakeSweepsFire) {
  core::MonitorConfig cfg;
  cfg.zombie_after = 20 * util::kMinute;
  cfg.merge_delta = 90 * util::kSecond;
  const AlertLog log = alert_log(cfg);
  EXPECT_GT(kind(log, core::AlertKind::kZombieSuspect), 10u);
  EXPECT_GT(kind(log, core::AlertKind::kEventEnded), 10u);
  EXPECT_EQ(fnv1a_hex(log.text), "7974c93dd2130f87");
}

}  // namespace
}  // namespace bw::stream
