// Corrupted-input regression corpus: every fault kind of the injection
// library is applied to a known-clean CSV export and the tolerant loaders'
// accounting (LoadReport + Dataset::Quality) is checked against the
// injector's ground-truth FaultLog.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/io_text.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "corpus.hpp"
#include "testing/fault.hpp"

namespace bw::core {
namespace {

using testutil::World;
namespace bt = bw::testing;

Dataset fault_world_dataset() {
  World world({0, util::days(2)}, 0);
  const net::Ipv4 victim(24, 0, 0, 1);
  bgp::UpdateLog control;
  control.push_back(world.platform->service().make_announce(
      util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim),
      {bgp::Community{0, 300}}));
  control.push_back(world.platform->service().make_withdraw(
      2 * util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
  std::vector<flow::TrafficBurst> bursts;
  bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 1), victim,
                               net::Proto::kUdp, 123, 4444,
                               {util::kHour, 2 * util::kHour}, 60,
                               world.acceptor));
  bursts.push_back(world.burst(net::Ipv4(64, 1, 0, 1), victim,
                               net::Proto::kTcp, 55555, 443,
                               {0, util::kHour}, 40, world.rejector));
  return world.run(std::move(control), bursts);
}

/// Shared clean CSV export plus baseline tolerant-load accounting.
class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process path: concurrent test processes of this suite must not
    // share the directory (remove_all below would race another process's
    // export/load).
    clean_dir_ = new std::string(::testing::TempDir() + "/bw_fault_clean_" +
                                 std::to_string(::getpid()));
    std::filesystem::remove_all(*clean_dir_);
    const Dataset ds = fault_world_dataset();
    export_dataset_csv(ds, *clean_dir_);

    LoadOptions options;
    options.strictness = Strictness::kSkip;
    IngestReport ingest;
    auto loaded = load_dataset_csv(*clean_dir_, options, &ingest);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    EXPECT_TRUE(ingest.clean());
    baseline_quality_ = new Dataset::Quality(loaded.value().quality());
    baseline_flows_ = loaded.value().flows().size();
    // Raw per-file row counts (pre-sanitation), for loader arithmetic.
    for (const auto& f : ingest.files) {
      if (f.file == "flows.csv") baseline_flow_rows_ = f.rows_read;
      if (f.file == "control.csv") baseline_control_rows_ = f.rows_read;
    }
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*clean_dir_);
    delete clean_dir_;
    clean_dir_ = nullptr;
    delete baseline_quality_;
    baseline_quality_ = nullptr;
  }

  /// Apply `plan` to a copy of the clean corpus; returns the faulty dir.
  static std::string corrupt(const bt::FaultPlan& plan, bt::FaultLog* log) {
    static int counter = 0;
    const std::string dir =
        ::testing::TempDir() + "/bw_faulty_" + std::to_string(::getpid()) +
        "_" + std::to_string(counter++);
    std::filesystem::remove_all(dir);
    auto corpus = bt::CsvCorpus::load(*clean_dir_);
    EXPECT_TRUE(corpus.ok()) << corpus.status().to_string();
    *log = bt::apply_faults(corpus.value(), plan);
    EXPECT_TRUE(corpus.value().save(dir).ok());
    return dir;
  }

  static const LoadReport& file_report(const IngestReport& ingest,
                                       std::string_view name) {
    for (const auto& f : ingest.files) {
      if (f.file == name) return f;
    }
    ADD_FAILURE() << "no report for " << name;
    static LoadReport missing;
    return missing;
  }

  static std::string* clean_dir_;
  static Dataset::Quality* baseline_quality_;
  static std::size_t baseline_flows_;         ///< dataset size after sanitation
  static std::size_t baseline_flow_rows_;     ///< raw flows.csv body rows
  static std::size_t baseline_control_rows_;  ///< raw control.csv body rows
};

std::string* FaultInjectionTest::clean_dir_ = nullptr;
Dataset::Quality* FaultInjectionTest::baseline_quality_ = nullptr;
std::size_t FaultInjectionTest::baseline_flows_ = 0;
std::size_t FaultInjectionTest::baseline_flow_rows_ = 0;
std::size_t FaultInjectionTest::baseline_control_rows_ = 0;

TEST_F(FaultInjectionTest, CorpusRoundTripsLosslessly) {
  auto corpus = bt::CsvCorpus::load(*clean_dir_);
  ASSERT_TRUE(corpus.ok());
  const std::string dir = ::testing::TempDir() + "/bw_fault_roundtrip_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(corpus.value().save(dir).ok());
  for (const char* name :
       {"control.csv", "flows.csv", "macs.csv", "origins.csv", "period.csv"}) {
    std::ifstream a(*clean_dir_ + "/" + name), b(dir + "/" + name);
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << name;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, ByteFlipsCostOneRecordEach) {
  bt::FaultPlan plan;
  plan.seed = 11;
  plan.faults = {{bt::FaultKind::kByteFlip, "flows.csv", 5, 0.0, 0}};
  bt::FaultLog log;
  const std::string dir = corrupt(plan, &log);
  EXPECT_EQ(log.total(bt::FaultKind::kByteFlip), 5u);

  LoadOptions options;
  options.strictness = Strictness::kSkip;
  IngestReport ingest;
  auto loaded = load_dataset_csv(dir, options, &ingest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const LoadReport& flows = file_report(ingest, "flows.csv");
  EXPECT_EQ(flows.rows_skipped, 5u);
  EXPECT_EQ(flows.rows_read, baseline_flow_rows_ - 5);
  EXPECT_FALSE(flows.diagnostics.empty());
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, TruncationCostsTailPlusOnePartialRow) {
  bt::FaultPlan plan;
  plan.seed = 12;
  plan.faults = {{bt::FaultKind::kTruncate, "flows.csv", 0, 0.05, 0}};
  bt::FaultLog log;
  const std::string dir = corrupt(plan, &log);
  const std::size_t affected = log.total(bt::FaultKind::kTruncate);
  ASSERT_GT(affected, 1u);

  LoadOptions options;
  options.strictness = Strictness::kSkip;
  IngestReport ingest;
  auto loaded = load_dataset_csv(dir, options, &ingest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const LoadReport& flows = file_report(ingest, "flows.csv");
  // The cut rows are simply gone; the mid-row remnant costs one record.
  EXPECT_EQ(flows.rows_skipped, 1u);
  EXPECT_EQ(flows.rows_read, baseline_flow_rows_ - affected);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, DuplicatesAreDeduped) {
  bt::FaultPlan plan;
  plan.seed = 13;
  plan.faults = {{bt::FaultKind::kDuplicateRows, "flows.csv", 4, 0.0, 0}};
  bt::FaultLog log;
  const std::string dir = corrupt(plan, &log);
  EXPECT_EQ(log.total(bt::FaultKind::kDuplicateRows), 4u);

  LoadOptions options;
  options.strictness = Strictness::kSkip;
  IngestReport ingest;
  auto loaded = load_dataset_csv(dir, options, &ingest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().quality().duplicate_flows,
            baseline_quality_->duplicate_flows + 4);
  EXPECT_EQ(loaded.value().flows().size(), baseline_flows_);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, ClockSkewIsQuarantined) {
  bt::FaultPlan plan;
  plan.seed = 14;
  plan.faults = {
      {bt::FaultKind::kClockSkew, "flows.csv", 3, 0.0, util::days(3)}};
  bt::FaultLog log;
  const std::string dir = corrupt(plan, &log);
  EXPECT_EQ(log.total(bt::FaultKind::kClockSkew), 3u);

  LoadOptions options;
  options.strictness = Strictness::kSkip;
  IngestReport ingest;
  auto loaded = load_dataset_csv(dir, options, &ingest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  // Quarantine runs before dedupe, so the count is exact even if a skewed
  // row was half of a duplicate pair.
  EXPECT_EQ(loaded.value().quality().out_of_period_flows,
            baseline_quality_->out_of_period_flows + 3);
  EXPECT_LT(loaded.value().flows().size(), baseline_flows_);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, ReorderedRowsAreCountedAndResorted) {
  bt::FaultPlan plan;
  plan.seed = 15;
  plan.faults = {{bt::FaultKind::kReorderRows, "flows.csv", 8, 0.0, 0}};
  bt::FaultLog log;
  const std::string dir = corrupt(plan, &log);
  EXPECT_EQ(log.total(bt::FaultKind::kReorderRows), 8u);

  LoadOptions options;
  options.strictness = Strictness::kSkip;
  IngestReport ingest;
  auto loaded = load_dataset_csv(dir, options, &ingest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_GT(loaded.value().quality().reordered_flows,
            baseline_quality_->reordered_flows);
  EXPECT_TRUE(std::is_sorted(
      loaded.value().flows().begin(), loaded.value().flows().end(),
      [](const auto& a, const auto& b) { return a.time < b.time; }));
  EXPECT_EQ(loaded.value().flows().size(), baseline_flows_);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, DroppedMacsLeaveUnattributableFlows) {
  bt::FaultPlan plan;
  plan.seed = 16;
  plan.faults = {{bt::FaultKind::kDropMacs, "macs.csv", 2, 0.0, 0}};
  bt::FaultLog log;
  const std::string dir = corrupt(plan, &log);
  EXPECT_EQ(log.total(bt::FaultKind::kDropMacs), 2u);

  LoadOptions options;
  options.strictness = Strictness::kSkip;
  IngestReport ingest;
  auto loaded = load_dataset_csv(dir, options, &ingest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_GT(loaded.value().quality().unknown_mac_flows,
            baseline_quality_->unknown_mac_flows);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, MangledRowsAreSkippedOrRepaired) {
  bt::FaultPlan plan;
  plan.seed = 17;
  plan.faults = {{bt::FaultKind::kMangleField, "control.csv", 3, 0.0, 0}};
  bt::FaultLog log;
  const std::string dir = corrupt(plan, &log);
  // The tiny control log has only 2 rows; the injector clamps.
  const std::size_t affected = log.total(bt::FaultKind::kMangleField);
  ASSERT_GT(affected, 0u);

  LoadOptions options;
  options.strictness = Strictness::kRepair;
  IngestReport ingest;
  auto loaded = load_dataset_csv(dir, options, &ingest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const LoadReport& control = file_report(ingest, "control.csv");
  EXPECT_EQ(control.rows_skipped + control.rows_repaired, affected);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, DefaultMixAccountsForEveryFault) {
  bt::FaultLog log;
  const std::string dir = corrupt(bt::FaultPlan::default_mix(20191021), &log);
  ASSERT_EQ(log.entries.size(), 7u);

  // Strict load must reject the corpus outright...
  EXPECT_FALSE(load_dataset_csv(dir, LoadOptions{}).ok());

  // ...while a tolerant load survives with full accounting.
  LoadOptions options;
  options.strictness = Strictness::kSkip;
  IngestReport ingest;
  auto loaded = load_dataset_csv(dir, options, &ingest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_FALSE(ingest.clean());

  const LoadReport& flows = file_report(ingest, "flows.csv");
  // Row arithmetic: truncation removes rows, duplication adds them; skew
  // and reordering keep counts; the partial tail costs one skip.
  EXPECT_EQ(flows.rows_read,
            baseline_flow_rows_ - log.total(bt::FaultKind::kTruncate) +
                log.total(bt::FaultKind::kDuplicateRows));
  EXPECT_EQ(flows.rows_skipped, 1u);

  // Every damaged control row is skipped (byteflip and mangle may overlap).
  const LoadReport& control = file_report(ingest, "control.csv");
  EXPECT_EQ(control.rows_read + control.rows_skipped, baseline_control_rows_);
  EXPECT_GE(control.rows_skipped, 1u);
  EXPECT_LE(control.rows_skipped, log.total(bt::FaultKind::kByteFlip) +
                                      log.total(bt::FaultKind::kMangleField));

  const Dataset::Quality& q = loaded.value().quality();
  EXPECT_GT(q.out_of_period_flows, baseline_quality_->out_of_period_flows);
  EXPECT_GT(q.duplicate_flows, baseline_quality_->duplicate_flows);
  EXPECT_GT(q.unknown_mac_flows, baseline_quality_->unknown_mac_flows);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultInjectionTest, FaultSubstreamsCompose) {
  // Appending a fault to a plan must not change what earlier faults did.
  bt::FaultPlan one;
  one.seed = 99;
  one.faults = {{bt::FaultKind::kByteFlip, "control.csv", 2, 0.0, 0}};
  bt::FaultPlan two = one;
  two.faults.push_back({bt::FaultKind::kDropMacs, "macs.csv", 1, 0.0, 0});

  bt::FaultLog log_one, log_two;
  const std::string dir_one = corrupt(one, &log_one);
  const std::string dir_two = corrupt(two, &log_two);
  EXPECT_EQ(log_one.entries[0].rows_affected, log_two.entries[0].rows_affected);

  std::ifstream a(dir_one + "/control.csv"), b(dir_two + "/control.csv");
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  std::filesystem::remove_all(dir_one);
  std::filesystem::remove_all(dir_two);
}

TEST(FaultSpecTest, ParsesCliSpecs) {
  auto plan = bt::parse_fault_spec(
      "truncate:flows.csv:0.05,byteflip:control.csv:4,skew::7200000", 42);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_EQ(plan.value().faults.size(), 3u);
  EXPECT_EQ(plan.value().seed, 42u);
  EXPECT_EQ(plan.value().faults[0].kind, bt::FaultKind::kTruncate);
  EXPECT_DOUBLE_EQ(plan.value().faults[0].fraction, 0.05);
  EXPECT_EQ(plan.value().faults[1].count, 4u);
  EXPECT_EQ(plan.value().faults[2].kind, bt::FaultKind::kClockSkew);
  EXPECT_EQ(plan.value().faults[2].skew_ms, 7200000);
  EXPECT_EQ(plan.value().faults[2].file, "flows.csv");  // default target
}

TEST(FaultSpecTest, RejectsUnknownKindAndBadArg) {
  EXPECT_FALSE(bt::parse_fault_spec("meteor", 1).ok());
  EXPECT_FALSE(bt::parse_fault_spec("truncate:flows.csv:2.5", 1).ok());
  EXPECT_FALSE(bt::parse_fault_spec("byteflip:flows.csv:xyz", 1).ok());
  EXPECT_FALSE(bt::parse_fault_spec("", 1).ok());
}

TEST(StageFaultTest, FailingStageDegradesOnlyItsSection) {
  const Dataset ds = fault_world_dataset();
  const AnalysisReport clean = run_pipeline(ds);

  AnalysisConfig faulty;
  faulty.inject_stage_faults = {"drop_rate"};
  const AnalysisReport degraded = run_pipeline(ds, faulty);

  // The failing stage is flagged, its section stays empty...
  bool found = false;
  for (const auto& stage : degraded.data_quality.stages) {
    if (stage.name == "drop_rate") {
      found = true;
      EXPECT_TRUE(stage.degraded);
      EXPECT_EQ(stage.error, "injected stage fault");
    } else {
      EXPECT_FALSE(stage.degraded) << stage.name;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(degraded.data_quality.degraded());
  EXPECT_TRUE(degraded.drop.by_length.empty());

  // ...and every other section matches the clean run exactly.
  EXPECT_EQ(degraded.events.size(), clean.events.size());
  EXPECT_EQ(degraded.pre.no_data, clean.pre.no_data);
  EXPECT_EQ(degraded.pre.data_anomaly_10m, clean.pre.data_anomaly_10m);
  EXPECT_EQ(degraded.protocols.udp_share, clean.protocols.udp_share);
  EXPECT_EQ(degraded.classes.infrastructure, clean.classes.infrastructure);
  EXPECT_EQ(degraded.classes.other, clean.classes.other);
  EXPECT_EQ(degraded.ports.clients, clean.ports.clients);
  EXPECT_EQ(degraded.ports.servers, clean.ports.servers);

  // The rendered document gains a data-quality section naming the stage.
  const std::string md = render_markdown(ds, degraded, nullptr);
  EXPECT_NE(md.find("## Data quality"), std::string::npos);
  EXPECT_NE(md.find("`drop_rate`"), std::string::npos);
  const std::string clean_md = render_markdown(ds, clean, nullptr);
  EXPECT_EQ(clean_md.find("## Data quality"), std::string::npos);
}

}  // namespace
}  // namespace bw::core
