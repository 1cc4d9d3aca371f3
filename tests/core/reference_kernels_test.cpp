// The production analyses against the naive reference (reference_kernels):
// run_pipeline's rendered report, its participation section and the
// what-if report must equal the reference's, byte for byte and field for
// field, for every combination of
//   - residency: materialized (try_load) and chunked (try_open_chunked)
//     over one file written with 512-row chunks, so scans cross chunk
//     edges many times;
//   - threads: a serial pool and an 8-way pool;
//   - seeds: 7, 42 and 20191021 at scale 0.02.
// The reference walks Dataset::flows() and shares no scan code with the
// kernels, so agreement here means the FlowView scans visit exactly the
// records the paper's definitions select.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "reference_kernels.hpp"
#include "util/parallel.hpp"

namespace bw::core {
namespace {

namespace fs = std::filesystem;

void expect_same_rows(const std::vector<AsParticipation>& got,
                      const std::vector<AsParticipation>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].asn, want[k].asn) << what << " row " << k;
    EXPECT_EQ(got[k].events, want[k].events) << what << " row " << k;
    EXPECT_EQ(got[k].event_share, want[k].event_share) << what << " row " << k;
    EXPECT_EQ(got[k].packets, want[k].packets) << what << " row " << k;
    EXPECT_EQ(got[k].traffic_share, want[k].traffic_share)
        << what << " row " << k;
  }
}

void expect_same(const ParticipationReport& got,
                 const ParticipationReport& want, const std::string& what) {
  EXPECT_EQ(got.attacks, want.attacks) << what;
  EXPECT_EQ(got.avg_amplifiers_per_attack, want.avg_amplifiers_per_attack)
      << what;
  EXPECT_EQ(got.avg_handover_per_attack, want.avg_handover_per_attack) << what;
  EXPECT_EQ(got.avg_origins_per_attack, want.avg_origins_per_attack) << what;
  expect_same_rows(got.handover, want.handover, what + " handover");
  expect_same_rows(got.origins, want.origins, what + " origins");
}

void expect_same(const WhatIfReport& got, const WhatIfReport& want,
                 const std::string& what) {
  EXPECT_EQ(got.events_considered, want.events_considered) << what;
  for (std::size_t s = 0; s < kStrategyCount; ++s) {
    const StrategyOutcome& g = got.outcomes[s];
    const StrategyOutcome& w = want.outcomes[s];
    const std::string label = what + " " + std::string(to_string(w.strategy));
    EXPECT_EQ(g.strategy, w.strategy) << label;
    EXPECT_EQ(g.attack_packets, w.attack_packets) << label;
    EXPECT_EQ(g.attack_dropped, w.attack_dropped) << label;
    EXPECT_EQ(g.legit_packets, w.legit_packets) << label;
    EXPECT_EQ(g.legit_dropped, w.legit_dropped) << label;
  }
}

class ReferenceKernelsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceKernelsTest, PipelineMatchesTheNaiveReference) {
  gen::ScenarioConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = GetParam();
  const ScenarioRun run = run_scenario(cfg, std::string{});  // cache disabled

  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("bw_reference_kernels." + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path =
      (dir / ("corpus_" + std::to_string(cfg.seed) + ".bwds")).string();
  ::setenv("BW_STORE_CHUNK_ROWS", "512", 1);
  ASSERT_TRUE(run.dataset.try_save(path).ok());
  ::unsetenv("BW_STORE_CHUNK_ROWS");
  auto in_ram = Dataset::try_load(path);
  ASSERT_TRUE(in_ram.ok()) << in_ram.status().to_string();
  auto chunked = Dataset::try_open_chunked(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status().to_string();
  ASSERT_GT(chunked->store()->chunk_count(), 20u);

  const AnalysisReport want = reference::run_pipeline(*in_ram);
  const WhatIfReport want_whatif =
      reference::whatif(*in_ram, want.events, want.pre);
  const std::string want_md = render_markdown(*in_ram, want, &want_whatif);
  ASSERT_GT(want_md.size(), 1000u);
  ASSERT_GT(want.participation.attacks, 0u);
  ASSERT_GT(want_whatif.events_considered, 0u);
  // The public entry points equal the pipeline's internal use of them.
  expect_same(reference::participation(*in_ram, want.events, want.pre),
              want.participation, "reference");

  auto& registry = obs::Registry::global();
  obs::Counter& participation_rows =
      registry.counter("kernel.participation.scan_rows");
  obs::Counter& whatif_rows = registry.counter("kernel.whatif.scan_rows");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> scanned;
  for (const Dataset* ds : {&*in_ram, &*chunked}) {
    for (const std::size_t workers : {0u, 7u}) {
      const std::string what =
          std::string(ds->chunked() ? "chunked" : "in-RAM") + ", " +
          std::to_string(workers + 1) + " threads";
      util::ThreadPool pool(workers);
      AnalysisConfig config;
      config.pool = &pool;
      const std::uint64_t participation_before = participation_rows.value();
      const std::uint64_t whatif_before = whatif_rows.value();
      const AnalysisReport got = run_pipeline(*ds, config);
      const WhatIfReport got_whatif = compute_whatif(*ds, got.events, got.pre);
      scanned.emplace_back(participation_rows.value() - participation_before,
                           whatif_rows.value() - whatif_before);

      EXPECT_EQ(render_markdown(*ds, got, &got_whatif), want_md) << what;
      expect_same(got.participation, want.participation, what);
      expect_same(got_whatif, want_whatif, what);
    }
  }
  // Both kernels count the same rows in RAM and out of core.
  EXPECT_GT(scanned.front().first, 0u);
  EXPECT_GT(scanned.front().second, 0u);
  for (const auto& rows : scanned) EXPECT_EQ(rows, scanned.front());
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceKernelsTest,
                         ::testing::Values(7u, 42u, 20191021u));

}  // namespace
}  // namespace bw::core
