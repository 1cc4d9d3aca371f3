// Thread-scaling benchmarks for the parallel analysis engine.
//
// Two families:
//   BM_PipelineThreads/N   full run_pipeline over the default benchmark
//                          corpus with an N-way pool (N = 1 is the exact
//                          serial fallback)
//   BM_ParallelForOverhead parallel_for dispatch cost on trivial bodies
//
// After the google-benchmark run, main() times run_pipeline once per
// thread count and writes machine-readable $BW_CSV_DIR/BENCH_pipeline.json
// (default bench_out/) so the perf trajectory is tracked across PRs.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "testing/bench_gate.hpp"
#include "util/parallel.hpp"

namespace {

using namespace bw;

const core::ScenarioRun& corpus() {
  static const core::ScenarioRun run =
      core::run_scenario(core::default_benchmark_scenario());
  return run;
}

void BM_PipelineThreads(benchmark::State& state) {
  const core::Dataset& dataset = corpus().dataset;
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)) - 1);
  core::AnalysisConfig config;
  config.pool = &pool;
  for (auto _ : state) {
    core::AnalysisReport report = core::run_pipeline(dataset, config);
    benchmark::DoNotOptimize(report);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["events"] = static_cast<double>(
      core::merge_events(dataset.blackhole_updates(), dataset.period().end)
          .size());
}
BENCHMARK(BM_PipelineThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ParallelForOverhead(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> out(1 << 16);
  for (auto _ : state) {
    util::parallel_for(pool, out.size(),
                       [&](std::size_t i) { out[i] = i * 2654435761u; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_ParallelForOverhead)->Arg(0)->Arg(1)->Arg(3)->Arg(7);

double time_pipeline_ms(const core::Dataset& dataset, std::size_t threads,
                        int repetitions) {
  util::ThreadPool pool(threads - 1);
  core::AnalysisConfig config;
  config.pool = &pool;
  return bench::time_best_ms(repetitions, [&] {
    core::AnalysisReport report = core::run_pipeline(dataset, config);
    benchmark::DoNotOptimize(report);
  });
}

/// bench_out/BENCH_pipeline.json: the cross-PR perf-tracking record, in the
/// unified bench schema (v2) consumed by tools/bench-gate.
void write_pipeline_json() {
  const char* dir_env = std::getenv("BW_CSV_DIR");
  const std::string dir = dir_env != nullptr ? dir_env : "bench_out";
  std::filesystem::create_directories(dir);

  const core::Dataset& dataset = corpus().dataset;
  const auto summary = dataset.summary();
  const double flow_records = static_cast<double>(summary.flow_records);

  std::ofstream os(dir + "/BENCH_pipeline.json", std::ios::trunc);
  os << "{\n";
  os << "  \"bench_schema_version\": " << testing::kBenchSchemaVersion
     << ",\n";
  os << "  \"benchmark\": \"run_pipeline\",\n";
  os << "  \"scale\": " << core::default_benchmark_scenario().scale << ",\n";
  os << "  \"flow_records\": " << summary.flow_records << ",\n";
  os << "  \"blackhole_updates\": " << summary.blackhole_updates << ",\n";
  os << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n";
  double serial_ms = 0.0;
  const std::size_t counts[] = {1, 2, 4, 8};
  double wall_ms[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < 4; ++i) {
    wall_ms[i] = time_pipeline_ms(dataset, counts[i], 3);
    if (counts[i] == 1) serial_ms = wall_ms[i];
    std::cerr << "pipeline threads=" << counts[i] << " wall_ms=" << wall_ms[i]
              << "\n";
  }
  os << "  \"wall_ms_by_threads\": {\n";
  for (std::size_t i = 0; i < 4; ++i) {
    os << "    \"" << counts[i] << "\": " << wall_ms[i]
       << (i + 1 < 4 ? ",\n" : "\n");
  }
  os << "  },\n";
  os << "  \"flows_per_s_by_threads\": {\n";
  for (std::size_t i = 0; i < 4; ++i) {
    const double fps =
        wall_ms[i] > 0.0 ? flow_records / (wall_ms[i] / 1000.0) : 0.0;
    os << "    \"" << counts[i] << "\": " << fps << (i + 1 < 4 ? ",\n" : "\n");
  }
  os << "  },\n";
  const double t8 = time_pipeline_ms(dataset, 8, 1);
  os << "  \"speedup_8_vs_1\": " << (t8 > 0.0 ? serial_ms / t8 : 0.0) << "\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_pipeline_json();
  return 0;
}
